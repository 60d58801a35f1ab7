//! Shared-memory transaction-flow detection (§3).
//!
//! Threads of a multithreaded stage pass transactions between themselves
//! through shared data structures (e.g. Apache's listener → worker fd
//! queue). There is no explicit produce/consume call to hook, so the
//! producer–consumer relationship must be *inferred* from the memory
//! operations performed inside critical sections.
//!
//! The algorithm (paper §3.2), restated over the event vocabulary of
//! this module:
//!
//! - Every location (memory word or thread-annotated register) may carry
//!   a *taint entry*: a transaction context (or the special invalid
//!   context `invlctxt`) plus the lock protecting the critical section
//!   that last updated it.
//! - A `MOV` inside a critical section copies the source's taint to the
//!   destination. If the source is untainted and the destination is a
//!   *memory* location, the destination is tainted with the executing
//!   thread's current transaction context and the thread is recorded as
//!   a **producer** for the lock.
//! - Any non-`MOV` modification (immediate store, arithmetic update)
//!   taints the destination with the invalid context, which is how
//!   shared counters (Figure 2) and `NULL` sanity checks (§3.3.2) are
//!   excluded.
//! - A read of a validly tainted location *after* the critical section
//!   exits (within the emulator's `MAX`-instruction window, §7.2) is a
//!   **consume**: the reading thread is recorded as a consumer for the
//!   tainting lock and inherits the producer's transaction context.
//! - A location accessed from a critical section protected by a
//!   different lock than the one that tainted it is flushed first.
//! - The first time the producer and consumer lists of a lock intersect
//!   (the memory-allocator pattern, Figure 3), transaction flow for that
//!   lock is disabled; the substrate may then stop emulating its
//!   critical sections (§7.2's performance optimization).

use crate::context::CtxId;
use crate::hash::FnvHashMap;
use crate::ids::{LockId, ThreadId};

/// A location in the combined name space of §3.2: the virtual address
/// space plus per-thread annotated registers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Loc {
    /// A word in (guest) memory, identified by its word address.
    Mem(u64),
    /// Register `reg` of thread `t` (the paper's `reg_ti` annotation).
    Reg(ThreadId, u8),
}

impl Loc {
    /// Whether this is a memory location.
    pub fn is_mem(&self) -> bool {
        matches!(self, Loc::Mem(_))
    }
}

/// A memory operation reported by the emulating substrate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemEvent {
    /// The thread acquired `lock`; nesting is tracked and all analysis
    /// is attributed to the *outermost* lock (§3.3.2).
    CsEnter {
        /// The lock protecting the entered critical section.
        lock: LockId,
    },
    /// The thread released a lock; at depth zero the critical section
    /// ends and the post-exit consume window begins.
    CsExit,
    /// A `MOV` from `src` to `dst` inside a critical section.
    Mov {
        /// Source location.
        src: Loc,
        /// Destination location.
        dst: Loc,
    },
    /// A non-`MOV` modification of `dst` inside a critical section
    /// (immediate store, arithmetic read-modify-write, …).
    Modify {
        /// Destination location.
        dst: Loc,
    },
    /// A read of `loc` after critical-section exit, within the
    /// substrate's consume window.
    Use {
        /// The location read.
        loc: Loc,
    },
}

/// A flow inference produced by the detector.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowEvent {
    /// `thread` produced a value at `loc` under `lock` while executing
    /// with context `ctx`.
    Produced {
        /// Producing thread.
        thread: ThreadId,
        /// Location the value was stored to.
        loc: Loc,
        /// The producer's transaction context.
        ctx: CtxId,
        /// Lock protecting the critical section.
        lock: LockId,
    },
    /// `thread` consumed a value from `loc` that carries `ctx`.
    ///
    /// The profiler reacts by assigning `ctx` to the consuming thread
    /// (§3.5).
    Consumed {
        /// Consuming thread.
        thread: ThreadId,
        /// Location the value was read from.
        loc: Loc,
        /// The producer context the consumer inherits.
        ctx: CtxId,
        /// Lock whose critical section tainted the location.
        lock: LockId,
    },
    /// The producer and consumer lists of `lock` intersected: shared
    /// memory under this lock does not constitute transaction flow
    /// (the allocator pattern, §3.4).
    FlowDisabled {
        /// The lock whose flow tracking is disabled.
        lock: LockId,
    },
}

/// Tunables of the detector (ablation knobs).
#[derive(Clone, Copy, Debug)]
pub struct FlowConfig {
    /// Clear the executing thread's register taints when it enters an
    /// outermost critical section.
    ///
    /// §3.1 assumes values a producer brings into a critical section are
    /// untainted ("a location gets associated with a transaction context
    /// only inside a critical section"); clearing registers on entry
    /// enforces that assumption against stale taint left by a previous
    /// critical section of the same thread.
    pub clear_regs_on_cs_enter: bool,
    /// Infer *produce* only when the destination of an untainted `MOV`
    /// is a memory location. Disabling this treats register targets as
    /// produce points too, which mis-classifies consumers as producers —
    /// kept as an ablation to demonstrate why the restriction matters.
    pub produce_requires_mem_dst: bool,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            clear_regs_on_cs_enter: true,
            produce_requires_mem_dst: true,
        }
    }
}

/// Taint value: a valid transaction context or `invlctxt`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Taint {
    Valid(CtxId),
    Invalid,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    taint: Taint,
    lock: LockId,
}

/// Tag bit distinguishing packed register codes from memory codes.
///
/// The substrates address guest memory by small word indices, nowhere
/// near 2^63, so the top bit of the packed code is free to carry the
/// kind: `Mem(a)` packs to `a`, `Reg(t, r)` packs to
/// `REG_TAG | t << 8 | r`.
const REG_TAG: u64 = 1 << 63;

fn loc_code(loc: Loc) -> u64 {
    match loc {
        Loc::Mem(a) => {
            debug_assert!(
                a & REG_TAG == 0,
                "memory address collides with the register tag"
            );
            a
        }
        Loc::Reg(t, r) => REG_TAG | (u64::from(t.0) << 8) | u64::from(r),
    }
}

/// Per-thread register taints, directly indexed by register number.
///
/// Registers live in a tiny dense space (`u8` indices), so keeping
/// them out of the hash table turns the §3.1 clear-on-entry rule into
/// an O(regs) wipe of one bank instead of a scan of the whole
/// dictionary.
#[derive(Clone, Debug, Default)]
struct RegBank {
    slots: Vec<Option<Entry>>,
    live: usize,
}

#[derive(Debug, Default)]
struct LockState {
    /// Sorted distinct producer threads.
    producers: Vec<ThreadId>,
    /// Sorted distinct consumer threads.
    consumers: Vec<ThreadId>,
    disabled: bool,
    produced: u64,
    consumed: u64,
}

fn insert_sorted(v: &mut Vec<ThreadId>, t: ThreadId) {
    if let Err(i) = v.binary_search(&t) {
        v.insert(i, t);
    }
}

fn sorted_intersect(a: &[ThreadId], b: &[ThreadId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Critical-section nesting of one thread; `depth == 0` means the
/// thread is outside any critical section.
#[derive(Clone, Copy, Debug)]
struct CsSlot {
    outer: LockId,
    depth: u32,
}

/// Per-lock flow statistics for reports and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockFlowStats {
    /// Number of produce inferences.
    pub produced: u64,
    /// Number of consume inferences.
    pub consumed: u64,
    /// Distinct producer threads seen.
    pub producers: usize,
    /// Distinct consumer threads seen.
    pub consumers: usize,
    /// Whether flow tracking was disabled for this lock.
    pub disabled: bool,
}

/// The §3 shared-memory transaction-flow detector.
///
/// Internally the location dictionary is split by kind: memory taints
/// live in an FNV-hashed map keyed by a packed location code, register
/// taints in dense per-thread banks (so the §3.1 clear-on-entry rule
/// touches only one bank), and per-lock state in a second FNV map. A
/// `MOV` therefore costs one integer hash instead of several SipHash
/// map operations.
///
/// # Examples
///
/// The Figure 1 producer–consumer round, reduced to raw memory events:
///
/// ```
/// use whodunit_core::context::CtxId;
/// use whodunit_core::ids::{LockId, ThreadId};
/// use whodunit_core::shm::{FlowDetector, FlowEvent, Loc, MemEvent};
///
/// let mut d = FlowDetector::default();
/// let (lock, prod, cons) = (LockId(1), ThreadId(1), ThreadId(2));
/// let mut out = Vec::new();
/// // Producer: argument register → shared slot.
/// d.on_event(prod, CtxId(7), &MemEvent::CsEnter { lock }, &mut out);
/// d.on_event(prod, CtxId(7), &MemEvent::Mov {
///     src: Loc::Reg(prod, 1), dst: Loc::Mem(50) }, &mut out);
/// d.on_event(prod, CtxId(7), &MemEvent::CsExit, &mut out);
/// // Consumer: shared slot → register, used after the exit.
/// d.on_event(cons, CtxId(0), &MemEvent::CsEnter { lock }, &mut out);
/// d.on_event(cons, CtxId(0), &MemEvent::Mov {
///     src: Loc::Mem(50), dst: Loc::Reg(cons, 1) }, &mut out);
/// d.on_event(cons, CtxId(0), &MemEvent::CsExit, &mut out);
/// out.clear();
/// d.on_event(cons, CtxId(0), &MemEvent::Use {
///     loc: Loc::Reg(cons, 1) }, &mut out);
/// assert!(matches!(out[0],
///     FlowEvent::Consumed { ctx: CtxId(7), .. }));
/// ```
#[derive(Debug)]
pub struct FlowDetector {
    cfg: FlowConfig,
    /// Memory taints, keyed by packed location code.
    mem: FnvHashMap<u64, Entry>,
    /// Register taints, indexed by thread then register number.
    regs: Vec<RegBank>,
    /// Total live register taints across all banks.
    reg_live: usize,
    locks: FnvHashMap<LockId, LockState>,
    /// Critical-section nesting, indexed by thread id.
    in_cs: Vec<CsSlot>,
}

impl Default for FlowDetector {
    fn default() -> Self {
        Self::new(FlowConfig::default())
    }
}

impl FlowDetector {
    /// Creates a detector with the given configuration.
    pub fn new(cfg: FlowConfig) -> Self {
        FlowDetector {
            cfg,
            mem: FnvHashMap::default(),
            regs: Vec::new(),
            reg_live: 0,
            locks: FnvHashMap::default(),
            in_cs: Vec::new(),
        }
    }

    /// Whether transaction flow is still tracked for `lock`.
    ///
    /// Substrates use this for the §7.2 optimization: once a lock's flow
    /// is disabled, its critical sections can run natively.
    pub fn flow_enabled(&self, lock: LockId) -> bool {
        self.locks.get(&lock).map(|s| !s.disabled).unwrap_or(true)
    }

    /// Per-lock statistics.
    pub fn lock_stats(&self, lock: LockId) -> LockFlowStats {
        match self.locks.get(&lock) {
            None => LockFlowStats::default(),
            Some(s) => LockFlowStats {
                produced: s.produced,
                consumed: s.consumed,
                producers: s.producers.len(),
                consumers: s.consumers.len(),
                disabled: s.disabled,
            },
        }
    }

    /// All locks the detector has seen, in id order.
    pub fn known_locks(&self) -> Vec<LockId> {
        let mut v: Vec<_> = self.locks.keys().copied().collect();
        v.sort();
        v
    }

    /// Size of the location dictionary (tainted locations).
    pub fn dict_len(&self) -> usize {
        self.mem.len() + self.reg_live
    }

    fn entry_of(&self, loc: Loc) -> Option<Entry> {
        match loc {
            Loc::Mem(_) => self.mem.get(&loc_code(loc)).copied(),
            Loc::Reg(t, r) => self
                .regs
                .get(t.0 as usize)
                .and_then(|b| b.slots.get(r as usize).copied().flatten()),
        }
    }

    fn set_entry(&mut self, loc: Loc, e: Entry) {
        match loc {
            Loc::Mem(_) => {
                self.mem.insert(loc_code(loc), e);
            }
            Loc::Reg(t, r) => {
                let ti = t.0 as usize;
                if self.regs.len() <= ti {
                    self.regs.resize(ti + 1, RegBank::default());
                }
                let bank = &mut self.regs[ti];
                let ri = r as usize;
                if bank.slots.len() <= ri {
                    bank.slots.resize(ri + 1, None);
                }
                if bank.slots[ri].is_none() {
                    bank.live += 1;
                    self.reg_live += 1;
                }
                bank.slots[ri] = Some(e);
            }
        }
    }

    fn remove_entry(&mut self, loc: Loc) {
        match loc {
            Loc::Mem(_) => {
                self.mem.remove(&loc_code(loc));
            }
            Loc::Reg(t, r) => {
                if let Some(bank) = self.regs.get_mut(t.0 as usize) {
                    if let Some(slot) = bank.slots.get_mut(r as usize) {
                        if slot.take().is_some() {
                            bank.live -= 1;
                            self.reg_live -= 1;
                        }
                    }
                }
            }
        }
    }

    /// Feeds one memory event for thread `t`, whose current transaction
    /// context is `cur_ctx`; inferences are appended to `out`.
    pub fn on_event(
        &mut self,
        t: ThreadId,
        cur_ctx: CtxId,
        ev: &MemEvent,
        out: &mut Vec<FlowEvent>,
    ) {
        match *ev {
            MemEvent::CsEnter { lock } => self.cs_enter(t, lock),
            MemEvent::CsExit => self.cs_exit(t),
            MemEvent::Mov { src, dst } => self.mov(t, cur_ctx, src, dst, out),
            MemEvent::Modify { dst } => self.modify(t, dst),
            MemEvent::Use { loc } => self.use_loc(t, loc, out),
        }
    }

    fn cs_enter(&mut self, t: ThreadId, lock: LockId) {
        let ti = t.0 as usize;
        if self.in_cs.len() <= ti {
            self.in_cs.resize(
                ti + 1,
                CsSlot {
                    outer: lock,
                    depth: 0,
                },
            );
        }
        if self.in_cs[ti].depth == 0 {
            self.in_cs[ti].outer = lock;
            if self.cfg.clear_regs_on_cs_enter {
                if let Some(bank) = self.regs.get_mut(ti) {
                    if bank.live > 0 {
                        self.reg_live -= bank.live;
                        bank.live = 0;
                        bank.slots.fill(None);
                    }
                }
            }
        }
        self.in_cs[ti].depth += 1;
        self.locks.entry(lock).or_default();
    }

    fn cs_exit(&mut self, t: ThreadId) {
        if let Some(st) = self.in_cs.get_mut(t.0 as usize) {
            st.depth = st.depth.saturating_sub(1);
        }
    }

    /// The outermost lock of `t`'s current critical section, if any.
    fn outer_lock(&self, t: ThreadId) -> Option<LockId> {
        self.in_cs
            .get(t.0 as usize)
            .filter(|s| s.depth > 0)
            .map(|s| s.outer)
    }

    /// §3.2 flush rule: a location accessed from a critical section
    /// protected by a different lock than the one that tainted it loses
    /// its taint.
    fn flush_if_foreign(&mut self, loc: Loc, lock: LockId) {
        if let Some(e) = self.entry_of(loc) {
            if e.lock != lock {
                self.remove_entry(loc);
            }
        }
    }

    fn mov(&mut self, t: ThreadId, cur_ctx: CtxId, src: Loc, dst: Loc, out: &mut Vec<FlowEvent>) {
        let Some(lock) = self.outer_lock(t) else {
            // Defensive: a `MOV` outside any critical section is not
            // analyzed (the substrate reports post-exit reads as `Use`).
            return;
        };
        self.flush_if_foreign(src, lock);
        self.flush_if_foreign(dst, lock);
        match self.entry_of(src) {
            Some(e) => {
                // Copy the taint, whatever it is (valid or invalid):
                // this is how queue-internal element moves keep their
                // producer context (§3.2's priority-queue case) and how
                // the invalid context spreads through `NULL` checks.
                self.set_entry(
                    dst,
                    Entry {
                        taint: e.taint,
                        lock,
                    },
                );
            }
            None => {
                if dst.is_mem() || !self.cfg.produce_requires_mem_dst {
                    // Untainted source: the thread is producing a value
                    // it computed before entering the critical section.
                    self.set_entry(
                        dst,
                        Entry {
                            taint: Taint::Valid(cur_ctx),
                            lock,
                        },
                    );
                    let st = self.locks.entry(lock).or_default();
                    st.produced += 1;
                    insert_sorted(&mut st.producers, t);
                    out.push(FlowEvent::Produced {
                        thread: t,
                        loc: dst,
                        ctx: cur_ctx,
                        lock,
                    });
                    self.check_intersection(lock, out);
                }
                // Untainted moves into registers stay untainted: they
                // are address computations and staging loads, not
                // produce points.
            }
        }
    }

    fn modify(&mut self, t: ThreadId, dst: Loc) {
        let Some(lock) = self.outer_lock(t) else {
            return;
        };
        self.set_entry(
            dst,
            Entry {
                taint: Taint::Invalid,
                lock,
            },
        );
    }

    fn use_loc(&mut self, t: ThreadId, loc: Loc, out: &mut Vec<FlowEvent>) {
        if self.outer_lock(t).is_some() {
            // Uses are only meaningful after the critical section exits.
            return;
        }
        let Some(e) = self.entry_of(loc) else {
            return;
        };
        let Taint::Valid(ctx) = e.taint else {
            return;
        };
        let st = self.locks.entry(e.lock).or_default();
        st.consumed += 1;
        insert_sorted(&mut st.consumers, t);
        let disabled = st.disabled;
        self.check_intersection(e.lock, out);
        let now_disabled = self.locks.get(&e.lock).map(|s| s.disabled).unwrap_or(false);
        if !disabled && !now_disabled {
            out.push(FlowEvent::Consumed {
                thread: t,
                loc,
                ctx,
                lock: e.lock,
            });
        }
    }

    fn check_intersection(&mut self, lock: LockId, out: &mut Vec<FlowEvent>) {
        let Some(st) = self.locks.get_mut(&lock) else {
            return;
        };
        if st.disabled {
            return;
        }
        if sorted_intersect(&st.producers, &st.consumers) {
            st.disabled = true;
            out.push(FlowEvent::FlowDisabled { lock });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: LockId = LockId(1);
    const L2: LockId = LockId(2);
    const PROD: ThreadId = ThreadId(1);
    const CONS: ThreadId = ThreadId(2);
    const CTX_P: CtxId = CtxId(7);
    const CTX_C: CtxId = CtxId(8);

    fn mem(a: u64) -> Loc {
        Loc::Mem(a)
    }

    fn reg(t: ThreadId, r: u8) -> Loc {
        Loc::Reg(t, r)
    }

    /// Drives the producer half of Figure 1: load an argument into a
    /// register, store it into the shared queue slot.
    fn produce(
        d: &mut FlowDetector,
        t: ThreadId,
        ctx: CtxId,
        arg: Loc,
        slot: Loc,
    ) -> Vec<FlowEvent> {
        let mut out = Vec::new();
        d.on_event(t, ctx, &MemEvent::CsEnter { lock: L }, &mut out);
        d.on_event(
            t,
            ctx,
            &MemEvent::Mov {
                src: arg,
                dst: reg(t, 0),
            },
            &mut out,
        );
        d.on_event(
            t,
            ctx,
            &MemEvent::Mov {
                src: reg(t, 0),
                dst: slot,
            },
            &mut out,
        );
        d.on_event(t, ctx, &MemEvent::Modify { dst: mem(100) }, &mut out); // nelts++.
        d.on_event(t, ctx, &MemEvent::CsExit, &mut out);
        out
    }

    /// Drives the consumer half of Figure 1: load the queue slot into a
    /// register, store it to a caller-provided location, use it after
    /// the critical section exits.
    fn consume(
        d: &mut FlowDetector,
        t: ThreadId,
        ctx: CtxId,
        slot: Loc,
        dst: Loc,
    ) -> Vec<FlowEvent> {
        let mut out = Vec::new();
        d.on_event(t, ctx, &MemEvent::CsEnter { lock: L }, &mut out);
        d.on_event(
            t,
            ctx,
            &MemEvent::Mov {
                src: slot,
                dst: reg(t, 1),
            },
            &mut out,
        );
        d.on_event(
            t,
            ctx,
            &MemEvent::Mov {
                src: reg(t, 1),
                dst,
            },
            &mut out,
        );
        d.on_event(t, ctx, &MemEvent::CsExit, &mut out);
        d.on_event(t, ctx, &MemEvent::Use { loc: dst }, &mut out);
        out
    }

    #[test]
    fn figure1_producer_consumer_flow_is_detected() {
        let mut d = FlowDetector::default();
        let ev = produce(&mut d, PROD, CTX_P, mem(10), mem(50));
        assert!(matches!(
            ev.as_slice(),
            [FlowEvent::Produced {
                thread: PROD,
                ctx: CTX_P,
                ..
            }]
        ));
        let ev = consume(&mut d, CONS, CTX_C, mem(50), mem(200));
        assert!(
            ev.iter().any(|e| matches!(
                e,
                FlowEvent::Consumed {
                    thread: CONS,
                    ctx: CTX_P,
                    ..
                }
            )),
            "consumer must inherit the producer context, got {ev:?}"
        );
        assert!(d.flow_enabled(L));
        let s = d.lock_stats(L);
        assert_eq!((s.producers, s.consumers), (1, 1));
        assert!(!s.disabled);
    }

    #[test]
    fn untainted_register_moves_are_not_produce_points() {
        let mut d = FlowDetector::default();
        let mut out = Vec::new();
        d.on_event(CONS, CTX_C, &MemEvent::CsEnter { lock: L }, &mut out);
        // Address computation: load an untainted pointer into a register.
        d.on_event(
            CONS,
            CTX_C,
            &MemEvent::Mov {
                src: mem(5),
                dst: reg(CONS, 0),
            },
            &mut out,
        );
        d.on_event(CONS, CTX_C, &MemEvent::CsExit, &mut out);
        assert!(out.is_empty(), "got {out:?}");
        assert_eq!(d.lock_stats(L).producers, 0);
    }

    #[test]
    fn shared_counter_yields_no_flow() {
        // Figure 2: both threads increment a shared counter; the
        // non-MOV modification taints it with the invalid context.
        let mut d = FlowDetector::default();
        let mut out = Vec::new();
        for (t, ctx) in [(PROD, CTX_P), (CONS, CTX_C)] {
            d.on_event(t, ctx, &MemEvent::CsEnter { lock: L }, &mut out);
            d.on_event(
                t,
                ctx,
                &MemEvent::Mov {
                    src: mem(100),
                    dst: reg(t, 0),
                },
                &mut out,
            );
            d.on_event(t, ctx, &MemEvent::Modify { dst: reg(t, 0) }, &mut out);
            d.on_event(
                t,
                ctx,
                &MemEvent::Mov {
                    src: reg(t, 0),
                    dst: mem(100),
                },
                &mut out,
            );
            d.on_event(t, ctx, &MemEvent::CsExit, &mut out);
            d.on_event(t, ctx, &MemEvent::Use { loc: mem(100) }, &mut out);
        }
        assert!(
            !out.iter().any(|e| matches!(e, FlowEvent::Consumed { .. })),
            "shared counter must not flow, got {out:?}"
        );
    }

    #[test]
    fn null_sanity_check_does_not_flow_backwards() {
        // §3.3.2: the consumer stores NULL (an immediate) into the queue
        // slot; the producer later reads it — no flow may be inferred.
        let mut d = FlowDetector::default();
        let mut out = Vec::new();
        // Consumer writes NULL into the slot inside its CS.
        d.on_event(CONS, CTX_C, &MemEvent::CsEnter { lock: L }, &mut out);
        d.on_event(CONS, CTX_C, &MemEvent::Modify { dst: mem(50) }, &mut out);
        d.on_event(CONS, CTX_C, &MemEvent::CsExit, &mut out);
        // Producer checks the slot value after its own CS.
        d.on_event(PROD, CTX_P, &MemEvent::CsEnter { lock: L }, &mut out);
        d.on_event(
            PROD,
            CTX_P,
            &MemEvent::Mov {
                src: mem(50),
                dst: reg(PROD, 0),
            },
            &mut out,
        );
        d.on_event(
            PROD,
            CTX_P,
            &MemEvent::Mov {
                src: reg(PROD, 0),
                dst: mem(300),
            },
            &mut out,
        );
        d.on_event(PROD, CTX_P, &MemEvent::CsExit, &mut out);
        d.on_event(PROD, CTX_P, &MemEvent::Use { loc: mem(300) }, &mut out);
        assert!(
            !out.iter().any(|e| matches!(e, FlowEvent::Consumed { .. })),
            "NULL transfer must not flow, got {out:?}"
        );
    }

    #[test]
    fn allocator_pattern_disables_flow() {
        // Figure 3: the same thread frees (produces) and allocates
        // (consumes) under one lock — the lists intersect.
        let mut d = FlowDetector::default();
        let t = PROD;
        // mem_free: store pointer into the free list.
        let ev = produce(&mut d, t, CTX_P, mem(10), mem(60));
        assert!(matches!(ev.as_slice(), [FlowEvent::Produced { .. }]));
        // mem_alloc: read it back and use it after the CS.
        let ev = consume(&mut d, t, CTX_P, mem(60), mem(400));
        assert!(
            ev.iter()
                .any(|e| matches!(e, FlowEvent::FlowDisabled { lock } if *lock == L)),
            "allocator must disable flow, got {ev:?}"
        );
        assert!(!d.flow_enabled(L));
        // No Consumed may be reported once disabled.
        assert!(!ev.iter().any(|e| matches!(e, FlowEvent::Consumed { .. })));
    }

    #[test]
    fn queue_internal_moves_keep_producer_context() {
        // §3.2: elements moved within the shared structure (priority
        // queue reshuffling) carry their context along.
        let mut d = FlowDetector::default();
        let mut out = Vec::new();
        produce(&mut d, PROD, CTX_P, mem(10), mem(50));
        // Another producer operation moves the element to a new slot.
        d.on_event(PROD, CTX_P, &MemEvent::CsEnter { lock: L }, &mut out);
        d.on_event(
            PROD,
            CTX_P,
            &MemEvent::Mov {
                src: mem(50),
                dst: reg(PROD, 2),
            },
            &mut out,
        );
        d.on_event(
            PROD,
            CTX_P,
            &MemEvent::Mov {
                src: reg(PROD, 2),
                dst: mem(51),
            },
            &mut out,
        );
        d.on_event(PROD, CTX_P, &MemEvent::CsExit, &mut out);
        // Consume from the *new* slot.
        let ev = consume(&mut d, CONS, CTX_C, mem(51), mem(200));
        assert!(
            ev.iter()
                .any(|e| matches!(e, FlowEvent::Consumed { ctx: CTX_P, .. })),
            "moved element must keep its context, got {ev:?}"
        );
    }

    #[test]
    fn foreign_lock_access_flushes_taint() {
        let mut d = FlowDetector::default();
        let mut out = Vec::new();
        produce(&mut d, PROD, CTX_P, mem(10), mem(50));
        // The same location is accessed under a different lock: flush.
        d.on_event(CONS, CTX_C, &MemEvent::CsEnter { lock: L2 }, &mut out);
        d.on_event(
            CONS,
            CTX_C,
            &MemEvent::Mov {
                src: mem(50),
                dst: reg(CONS, 0),
            },
            &mut out,
        );
        d.on_event(
            CONS,
            CTX_C,
            &MemEvent::Mov {
                src: reg(CONS, 0),
                dst: mem(200),
            },
            &mut out,
        );
        d.on_event(CONS, CTX_C, &MemEvent::CsExit, &mut out);
        out.clear();
        d.on_event(CONS, CTX_C, &MemEvent::Use { loc: mem(200) }, &mut out);
        assert!(
            !out.iter()
                .any(|e| matches!(e, FlowEvent::Consumed { ctx: CTX_P, .. })),
            "flushed taint must not flow, got {out:?}"
        );
    }

    #[test]
    fn nested_locks_attribute_to_outermost() {
        let mut d = FlowDetector::default();
        let mut out = Vec::new();
        d.on_event(PROD, CTX_P, &MemEvent::CsEnter { lock: L }, &mut out);
        d.on_event(PROD, CTX_P, &MemEvent::CsEnter { lock: L2 }, &mut out);
        d.on_event(
            PROD,
            CTX_P,
            &MemEvent::Mov {
                src: mem(10),
                dst: reg(PROD, 0),
            },
            &mut out,
        );
        d.on_event(
            PROD,
            CTX_P,
            &MemEvent::Mov {
                src: reg(PROD, 0),
                dst: mem(50),
            },
            &mut out,
        );
        d.on_event(PROD, CTX_P, &MemEvent::CsExit, &mut out);
        d.on_event(PROD, CTX_P, &MemEvent::CsExit, &mut out);
        assert!(matches!(
            out.as_slice(),
            [FlowEvent::Produced { lock: L, .. }]
        ));
        assert_eq!(d.lock_stats(L).producers, 1);
        assert_eq!(d.lock_stats(L2).producers, 0);
    }

    #[test]
    fn stale_register_taint_is_cleared_on_reentry() {
        let mut d = FlowDetector::default();
        let mut out = Vec::new();
        // Consumer picks up taint into a register and keeps it there.
        produce(&mut d, PROD, CTX_P, mem(10), mem(50));
        d.on_event(CONS, CTX_C, &MemEvent::CsEnter { lock: L }, &mut out);
        d.on_event(
            CONS,
            CTX_C,
            &MemEvent::Mov {
                src: mem(50),
                dst: reg(CONS, 1),
            },
            &mut out,
        );
        d.on_event(CONS, CTX_C, &MemEvent::CsExit, &mut out);
        out.clear();
        // On re-entry the stale register taint must be gone, so storing
        // that register is a fresh produce (with the consumer's own
        // context), not a copy of CTX_P.
        d.on_event(CONS, CTX_C, &MemEvent::CsEnter { lock: L }, &mut out);
        d.on_event(
            CONS,
            CTX_C,
            &MemEvent::Mov {
                src: reg(CONS, 1),
                dst: mem(52),
            },
            &mut out,
        );
        d.on_event(CONS, CTX_C, &MemEvent::CsExit, &mut out);
        assert!(
            matches!(out.as_slice(), [FlowEvent::Produced { ctx: CTX_C, .. }]),
            "stale taint must not survive re-entry, got {out:?}"
        );
    }

    #[test]
    fn use_of_unknown_or_invalid_location_is_silent() {
        let mut d = FlowDetector::default();
        let mut out = Vec::new();
        d.on_event(CONS, CTX_C, &MemEvent::Use { loc: mem(999) }, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn flow_enabled_defaults_true_for_unknown_locks() {
        let d = FlowDetector::default();
        assert!(d.flow_enabled(LockId(42)));
        assert_eq!(d.lock_stats(LockId(42)), LockFlowStats::default());
    }

    #[test]
    fn two_producers_two_consumers_keep_flow_enabled() {
        let mut d = FlowDetector::default();
        let p2 = ThreadId(3);
        let c2 = ThreadId(4);
        produce(&mut d, PROD, CTX_P, mem(10), mem(50));
        produce(&mut d, p2, CtxId(9), mem(11), mem(51));
        consume(&mut d, CONS, CTX_C, mem(50), mem(200));
        let ev = consume(&mut d, c2, CtxId(10), mem(51), mem(201));
        assert!(ev
            .iter()
            .any(|e| matches!(e, FlowEvent::Consumed { ctx: CtxId(9), .. })));
        assert!(d.flow_enabled(L));
        let s = d.lock_stats(L);
        assert_eq!((s.producers, s.consumers), (2, 2));
    }
}
