//! Property-based tests of the core data structures and algorithms.

use proptest::prelude::*;
use whodunit_core::cct::{Cct, CctNodeId, Metrics};
use whodunit_core::context::{ContextAtom, ContextPolicy, ContextTable, CtxId};
use whodunit_core::crosstalk::CrosstalkRecorder;
use whodunit_core::frame::FrameId;
use whodunit_core::ids::{LockId, LockMode, ThreadId};
use whodunit_core::ipc::{IpcTracker, RecvKind};
use whodunit_core::shm::{FlowDetector, FlowEvent, Loc, MemEvent};
use whodunit_core::synopsis::SynopsisTable;

proptest! {
    /// After any sequence of frame appends under the pruning policy,
    /// the trailing frame run contains no duplicates, and appending is
    /// deterministic (same input → same interned id).
    #[test]
    fn context_pruning_keeps_frame_runs_duplicate_free(
        frames in proptest::collection::vec(0u32..6, 1..40)
    ) {
        let mut t = ContextTable::new(ContextPolicy::default());
        let mut ctx = CtxId::ROOT;
        for &f in &frames {
            ctx = t.append_frame(ctx, FrameId(f));
            let atoms = t.value(ctx).atoms();
            let run: Vec<u32> = atoms
                .iter()
                .rev()
                .take_while(|a| matches!(a, ContextAtom::Frame(_)))
                .map(|a| match a {
                    ContextAtom::Frame(f) => f.0,
                    _ => unreachable!(),
                })
                .collect();
            let mut dedup = run.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), run.len(), "duplicate in run {:?}", run);
        }
        // Replay gives the same context id.
        let mut t2 = ContextTable::new(ContextPolicy::default());
        let mut ctx2 = CtxId::ROOT;
        for &f in &frames {
            ctx2 = t2.append_frame(ctx2, FrameId(f));
        }
        prop_assert_eq!(t.value(ctx), t2.value(ctx2));
    }

    /// Appending the same frame twice in a row never changes the
    /// context (collapse rule is idempotent).
    #[test]
    fn context_collapse_is_idempotent(frames in proptest::collection::vec(0u32..6, 1..20)) {
        let mut t = ContextTable::new(ContextPolicy::default());
        let mut ctx = CtxId::ROOT;
        for &f in &frames {
            ctx = t.append_frame(ctx, FrameId(f));
            let again = t.append_frame(ctx, FrameId(f));
            prop_assert_eq!(ctx, again);
        }
    }

    /// CCT invariants: the root's inclusive metrics equal the sum of
    /// all recordings, `total()` (a sum over the arena) equals the tree
    /// walk it replaced — eight frames over up to 40 paths spill well
    /// past the inline child slots — and every recorded path resolves
    /// back to itself.
    #[test]
    fn cct_totals_and_paths(
        records in proptest::collection::vec(
            (proptest::collection::vec(0u32..8, 1..6), 0u64..1000, 0u64..100),
            1..40
        )
    ) {
        let mut cct = Cct::new();
        let mut want_cycles = 0u64;
        let mut want_samples = 0u64;
        for (path, cycles, samples) in &records {
            let p: Vec<FrameId> = path.iter().map(|&f| FrameId(f)).collect();
            cct.record(&p, Metrics { samples: *samples, cycles: *cycles, calls: 0 });
            want_cycles += cycles;
            want_samples += samples;
            let n = cct.path_node(&p);
            prop_assert_eq!(cct.path_of(n), p);
        }
        let total = cct.total();
        prop_assert_eq!(total, cct.inclusive_all()[CctNodeId::ROOT.0 as usize]);
        prop_assert_eq!(total.cycles, want_cycles);
        prop_assert_eq!(total.samples, want_samples);
    }

    /// Synopsis tables: every minted synopsis resolves back to its
    /// context; distinct contexts get distinct synopses.
    #[test]
    fn synopsis_roundtrip(ctxs in proptest::collection::vec(0u32..500, 1..100)) {
        let mut t = SynopsisTable::new(3u32);
        let mut seen = std::collections::HashMap::new();
        for &c in &ctxs {
            let s = t.synopsis_of(CtxId(c));
            prop_assert_eq!(t.ctx_of(s), Some(CtxId(c)));
            if let Some(prev) = seen.insert(c, s) {
                prop_assert_eq!(prev, s, "same context, same synopsis");
            }
        }
        let distinct: std::collections::HashSet<_> = seen.values().collect();
        prop_assert_eq!(distinct.len(), seen.len());
    }

    /// The producer–consumer discipline always transfers the producer's
    /// context, regardless of slot choice and interleaving.
    #[test]
    fn shm_producer_consumer_always_flows(
        ops in proptest::collection::vec((0u64..8, 5u32..100), 1..30)
    ) {
        let mut d = FlowDetector::default();
        let lock = LockId(1);
        let prod = ThreadId(1);
        let cons = ThreadId(2);
        let mut out = Vec::new();
        for (i, &(slot, ctx)) in ops.iter().enumerate() {
            let slot_addr = 100 + slot;
            let local = 500 + i as u64;
            // Produce: arg → reg → shared slot.
            d.on_event(prod, CtxId(ctx), &MemEvent::CsEnter { lock }, &mut out);
            d.on_event(prod, CtxId(ctx), &MemEvent::Mov { src: Loc::Mem(1), dst: Loc::Reg(prod, 1) }, &mut out);
            d.on_event(prod, CtxId(ctx), &MemEvent::Mov { src: Loc::Reg(prod, 1), dst: Loc::Mem(slot_addr) }, &mut out);
            d.on_event(prod, CtxId(ctx), &MemEvent::CsExit, &mut out);
            // Consume: shared slot → reg → local, then use.
            out.clear();
            d.on_event(cons, CtxId::ROOT, &MemEvent::CsEnter { lock }, &mut out);
            d.on_event(cons, CtxId::ROOT, &MemEvent::Mov { src: Loc::Mem(slot_addr), dst: Loc::Reg(cons, 2) }, &mut out);
            d.on_event(cons, CtxId::ROOT, &MemEvent::Mov { src: Loc::Reg(cons, 2), dst: Loc::Mem(local) }, &mut out);
            d.on_event(cons, CtxId::ROOT, &MemEvent::CsExit, &mut out);
            d.on_event(cons, CtxId::ROOT, &MemEvent::Use { loc: Loc::Mem(local) }, &mut out);
            prop_assert!(
                out.iter().any(|e| matches!(e, FlowEvent::Consumed { ctx: c, .. } if *c == CtxId(ctx))),
                "consume of ctx {} missing: {:?}", ctx, out
            );
        }
        prop_assert!(d.flow_enabled(lock));
    }

    /// Counter-style read-modify-write never produces flow, whatever
    /// the interleaving of threads.
    #[test]
    fn shm_counters_never_flow(ops in proptest::collection::vec((0u32..4, 0u64..3), 1..60)) {
        let mut d = FlowDetector::default();
        let lock = LockId(2);
        let mut out = Vec::new();
        for &(thread, counter) in &ops {
            let t = ThreadId(thread);
            let addr = 50 + counter;
            d.on_event(t, CtxId(thread + 10), &MemEvent::CsEnter { lock }, &mut out);
            d.on_event(t, CtxId(thread + 10), &MemEvent::Mov { src: Loc::Mem(addr), dst: Loc::Reg(t, 0) }, &mut out);
            d.on_event(t, CtxId(thread + 10), &MemEvent::Modify { dst: Loc::Reg(t, 0) }, &mut out);
            d.on_event(t, CtxId(thread + 10), &MemEvent::Mov { src: Loc::Reg(t, 0), dst: Loc::Mem(addr) }, &mut out);
            d.on_event(t, CtxId(thread + 10), &MemEvent::CsExit, &mut out);
            d.on_event(t, CtxId(thread + 10), &MemEvent::Use { loc: Loc::Mem(addr) }, &mut out);
        }
        prop_assert!(
            !out.iter().any(|e| matches!(e, FlowEvent::Consumed { .. })),
            "counter flowed: {:?}", out
        );
    }

    /// Crosstalk means: mean * count == total for any wait sequence.
    #[test]
    fn crosstalk_mean_arithmetic(waits in proptest::collection::vec(0u64..100_000, 1..50)) {
        let mut r = CrosstalkRecorder::new();
        let holder = CtxId(1);
        let waiter = CtxId(2);
        let mut total = 0u64;
        for (i, &w) in waits.iter().enumerate() {
            let t = ThreadId(i as u32 % 7);
            r.acquired(t, waiter, LockId(1), LockMode::Exclusive, w, Some(holder));
            r.released(t, LockId(1));
            total += w;
        }
        let st = r.waiter_stats(waiter);
        prop_assert_eq!(st.count, waits.len() as u64);
        prop_assert_eq!(st.total_wait, total);
        prop_assert!((st.mean() * st.count as f64 - total as f64).abs() < 1e-6);
    }

    /// IPC request/response classification is never confused by chains
    /// of arbitrary depth: the deepest own synopsis wins.
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn ipc_response_detection_any_depth(depth in 1usize..6) {
        // Build a chain of processes 0..depth, each forwarding.
        let mut tables: Vec<(ContextTable, SynopsisTable, IpcTracker)> = (0..depth + 1)
            .map(|p| (
                ContextTable::default(),
                SynopsisTable::new(p as u32),
                IpcTracker::new(),
            ))
            .collect();
        // Forward a request down the chain.
        let mut chain = {
            let (ctxs, syns, ipc) = &mut tables[0];
            let send_ctx = ctxs.append_path(CtxId::ROOT, &[FrameId(1)]);
            ipc.send(ctxs, syns, CtxId::ROOT, send_ctx)
        };
        let mut bases = vec![CtxId::ROOT];
        for p in 1..=depth {
            let (ctxs, syns, ipc) = &mut tables[p];
            let kind = ipc.recv(ctxs, syns, Some(&chain));
            let base = match kind {
                RecvKind::Request { ctx } => ctx,
                k => panic!("stage {p} expected request, got {k:?}"),
            };
            bases.push(base);
            if p < depth {
                let send_ctx = ctxs.append_path(base, &[FrameId(p as u32 + 1)]);
                chain = ipc.send(ctxs, syns, base, send_ctx);
            }
        }
        // The response travels back up; every hop restores its base.
        for p in (0..depth).rev() {
            let resp = {
                let (ctxs, syns, ipc) = &mut tables[p + 1];
                let base = bases[p + 1];
                let send_ctx = ctxs.append_path(base, &[FrameId(99)]);
                ipc.send(ctxs, syns, base, send_ctx)
            };
            let (ctxs, syns, ipc) = &mut tables[p];
            match ipc.recv(ctxs, syns, Some(&resp)) {
                RecvKind::Response { restore, .. } => prop_assert_eq!(restore, bases[p]),
                k => prop_assert!(false, "stage {} expected response, got {:?}", p, k),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Context dictionary + batch minting (the analysis pipeline's
// determinism primitives; see DESIGN.md §9).
// ---------------------------------------------------------------------

use whodunit_core::context::TransactionContext;
use whodunit_core::synopsis::{SynChain, Synopsis};

fn atom_strategy() -> impl Strategy<Value = ContextAtom> {
    prop_oneof![
        (0u32..8).prop_map(|f| ContextAtom::Frame(FrameId(f))),
        proptest::collection::vec(0u32..8, 1..4).prop_map(|p| {
            ContextAtom::Path(p.into_iter().map(FrameId).collect::<Vec<_>>().into())
        }),
        proptest::collection::vec((0u32..4, 0u32..64), 1..3).prop_map(|ss| {
            ContextAtom::Remote(SynChain(
                ss.into_iter().map(|(p, c)| Synopsis::new(p, c)).collect(),
            ))
        }),
    ]
}

fn value_strategy() -> impl Strategy<Value = TransactionContext> {
    proptest::collection::vec(atom_strategy(), 0..5).prop_map(TransactionContext)
}

proptest! {
    /// The hash-indexed intern arena mints exactly the ids a plain
    /// `HashMap`-keyed dictionary would: dense first-seen order, one id
    /// per distinct value, with `len` and `value` agreeing throughout.
    #[test]
    fn intern_index_matches_hashmap_reference(
        values in proptest::collection::vec(value_strategy(), 1..80)
    ) {
        let mut t = ContextTable::default();
        let mut model: std::collections::HashMap<TransactionContext, CtxId> =
            std::collections::HashMap::new();
        // The table pre-interns the root (empty) value at id 0.
        model.insert(t.value(CtxId::ROOT).clone(), CtxId::ROOT);
        let mut next = t.len() as u32;
        for v in &values {
            let id = t.intern(v.clone());
            match model.get(v) {
                Some(&prev) => prop_assert_eq!(prev, id, "re-intern changed the id"),
                None => {
                    prop_assert_eq!(id, CtxId(next), "ids must stay dense first-seen");
                    model.insert(v.clone(), id);
                    next += 1;
                }
            }
            prop_assert_eq!(t.value(id), v);
            prop_assert_eq!(t.len(), model.len(), "len = distinct values incl. root");
        }
    }

    /// Batch synopsis minting commutes with one-at-a-time minting: same
    /// synopses element-wise, same dictionary afterwards.
    #[test]
    fn mint_batch_commutes_with_singles(
        args in (proptest::collection::vec(0u32..30, 1..80), 0usize..81)
    ) {
        let (ctxs, split) = args;
        let ctxs: Vec<CtxId> = ctxs.into_iter().map(CtxId).collect();
        let split = split.min(ctxs.len());
        let mut batched = SynopsisTable::new(7u32);
        let mut singles = SynopsisTable::new(7u32);
        // Interleave: one batch, then singles, then another batch, so
        // the property covers mixed call patterns too.
        let first = batched.mint_batch(&ctxs[..split]);
        let mut want_first = Vec::new();
        for &c in &ctxs[..split] {
            want_first.push(singles.synopsis_of(c));
        }
        prop_assert_eq!(first, want_first);
        let second = batched.mint_batch(&ctxs[split..]);
        let mut want_second = Vec::new();
        for &c in &ctxs[split..] {
            want_second.push(singles.synopsis_of(c));
        }
        prop_assert_eq!(second, want_second);
        prop_assert_eq!(batched.minted_sorted(), singles.minted_sorted());
        prop_assert_eq!(batched.len(), singles.len());
    }
}

// ---------------------------------------------------------------------
// Flow-detector equivalence: the open-addressed FNV dictionary must
// behave exactly like the straightforward HashMap/HashSet formulation
// of §3.2 it replaced.
// ---------------------------------------------------------------------

mod flow_reference {
    use std::collections::{BTreeSet, HashMap};
    use whodunit_core::context::CtxId;
    use whodunit_core::ids::{LockId, ThreadId};
    use whodunit_core::shm::{FlowConfig, FlowEvent, Loc, MemEvent};

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Taint {
        Valid(CtxId),
        Invalid,
    }

    #[derive(Clone, Copy)]
    struct Entry {
        taint: Taint,
        lock: LockId,
    }

    #[derive(Default)]
    struct LockState {
        producers: BTreeSet<ThreadId>,
        consumers: BTreeSet<ThreadId>,
        disabled: bool,
        produced: u64,
        consumed: u64,
    }

    struct CsState {
        outer: LockId,
        depth: u32,
    }

    /// Map-based reference model of [`whodunit_core::shm::FlowDetector`]
    /// (the pre-optimization implementation, verbatim semantics).
    pub struct RefDetector {
        cfg: FlowConfig,
        dict: HashMap<Loc, Entry>,
        locks: HashMap<LockId, LockState>,
        in_cs: HashMap<ThreadId, CsState>,
    }

    impl RefDetector {
        pub fn new(cfg: FlowConfig) -> Self {
            RefDetector {
                cfg,
                dict: HashMap::new(),
                locks: HashMap::new(),
                in_cs: HashMap::new(),
            }
        }

        pub fn dict_len(&self) -> usize {
            self.dict.len()
        }

        pub fn known_locks(&self) -> Vec<LockId> {
            let mut v: Vec<_> = self.locks.keys().copied().collect();
            v.sort();
            v
        }

        pub fn stats(&self, lock: LockId) -> (u64, u64, usize, usize, bool) {
            match self.locks.get(&lock) {
                None => (0, 0, 0, 0, false),
                Some(s) => (
                    s.produced,
                    s.consumed,
                    s.producers.len(),
                    s.consumers.len(),
                    s.disabled,
                ),
            }
        }

        pub fn on_event(
            &mut self,
            t: ThreadId,
            cur_ctx: CtxId,
            ev: &MemEvent,
            out: &mut Vec<FlowEvent>,
        ) {
            match *ev {
                MemEvent::CsEnter { lock } => {
                    let st = self.in_cs.entry(t).or_insert(CsState {
                        outer: lock,
                        depth: 0,
                    });
                    if st.depth == 0 {
                        st.outer = lock;
                        if self.cfg.clear_regs_on_cs_enter {
                            self.dict
                                .retain(|loc, _| !matches!(loc, Loc::Reg(rt, _) if *rt == t));
                        }
                    }
                    st.depth += 1;
                    self.locks.entry(lock).or_default();
                }
                MemEvent::CsExit => {
                    if let Some(st) = self.in_cs.get_mut(&t) {
                        st.depth = st.depth.saturating_sub(1);
                        if st.depth == 0 {
                            self.in_cs.remove(&t);
                        }
                    }
                }
                MemEvent::Mov { src, dst } => {
                    let Some(lock) = self.outer_lock(t) else {
                        return;
                    };
                    self.flush_if_foreign(src, lock);
                    self.flush_if_foreign(dst, lock);
                    match self.dict.get(&src).copied() {
                        Some(e) => {
                            self.dict.insert(dst, Entry { taint: e.taint, lock });
                        }
                        None => {
                            if dst.is_mem() || !self.cfg.produce_requires_mem_dst {
                                self.dict.insert(
                                    dst,
                                    Entry {
                                        taint: Taint::Valid(cur_ctx),
                                        lock,
                                    },
                                );
                                let st = self.locks.entry(lock).or_default();
                                st.produced += 1;
                                st.producers.insert(t);
                                out.push(FlowEvent::Produced {
                                    thread: t,
                                    loc: dst,
                                    ctx: cur_ctx,
                                    lock,
                                });
                                self.check_intersection(lock, out);
                            }
                        }
                    }
                }
                MemEvent::Modify { dst } => {
                    let Some(lock) = self.outer_lock(t) else {
                        return;
                    };
                    self.dict.insert(
                        dst,
                        Entry {
                            taint: Taint::Invalid,
                            lock,
                        },
                    );
                }
                MemEvent::Use { loc } => {
                    if self.outer_lock(t).is_some() {
                        return;
                    }
                    let Some(e) = self.dict.get(&loc).copied() else {
                        return;
                    };
                    let Taint::Valid(ctx) = e.taint else {
                        return;
                    };
                    let st = self.locks.entry(e.lock).or_default();
                    st.consumed += 1;
                    st.consumers.insert(t);
                    let disabled = st.disabled;
                    self.check_intersection(e.lock, out);
                    let now_disabled =
                        self.locks.get(&e.lock).map(|s| s.disabled).unwrap_or(false);
                    if !disabled && !now_disabled {
                        out.push(FlowEvent::Consumed {
                            thread: t,
                            loc,
                            ctx,
                            lock: e.lock,
                        });
                    }
                }
            }
        }

        fn outer_lock(&self, t: ThreadId) -> Option<LockId> {
            self.in_cs.get(&t).map(|s| s.outer)
        }

        fn flush_if_foreign(&mut self, loc: Loc, lock: LockId) {
            if let Some(e) = self.dict.get(&loc) {
                if e.lock != lock {
                    self.dict.remove(&loc);
                }
            }
        }

        fn check_intersection(&mut self, lock: LockId, out: &mut Vec<FlowEvent>) {
            let Some(st) = self.locks.get_mut(&lock) else {
                return;
            };
            if st.disabled {
                return;
            }
            if st.producers.intersection(&st.consumers).next().is_some() {
                st.disabled = true;
                out.push(FlowEvent::FlowDisabled { lock });
            }
        }
    }
}

fn flow_loc_strategy() -> impl Strategy<Value = Loc> {
    prop_oneof![
        (0u64..12).prop_map(Loc::Mem),
        ((0u32..4), (0u8..3)).prop_map(|(t, r)| Loc::Reg(ThreadId(t), r)),
    ]
}

fn flow_event_strategy() -> impl Strategy<Value = MemEvent> {
    prop_oneof![
        (1u32..4).prop_map(|l| MemEvent::CsEnter { lock: LockId(l) }),
        Just(MemEvent::CsExit),
        (flow_loc_strategy(), flow_loc_strategy())
            .prop_map(|(src, dst)| MemEvent::Mov { src, dst }),
        flow_loc_strategy().prop_map(|dst| MemEvent::Modify { dst }),
        flow_loc_strategy().prop_map(|loc| MemEvent::Use { loc }),
    ]
}

/// Drives both detectors over one stream and compares every
/// observable: inference stream, dictionary size, lock sets, per-lock
/// statistics.
fn check_flow_equivalence(ops: &[(u32, u32, MemEvent)], clear_regs: bool, mem_dst: bool) {
    let cfg = whodunit_core::shm::FlowConfig {
        clear_regs_on_cs_enter: clear_regs,
        produce_requires_mem_dst: mem_dst,
    };
    let mut fast = FlowDetector::new(cfg);
    let mut slow = flow_reference::RefDetector::new(cfg);
    let mut out_fast = Vec::new();
    let mut out_slow = Vec::new();
    for (t, ctx, ev) in ops {
        out_fast.clear();
        out_slow.clear();
        fast.on_event(ThreadId(*t), CtxId(*ctx), ev, &mut out_fast);
        slow.on_event(ThreadId(*t), CtxId(*ctx), ev, &mut out_slow);
        prop_assert_eq!(&out_fast, &out_slow, "event {:?} diverged", ev);
    }
    prop_assert_eq!(fast.dict_len(), slow.dict_len());
    prop_assert_eq!(fast.known_locks(), slow.known_locks());
    for l in 0u32..6 {
        let s = fast.lock_stats(LockId(l));
        let (produced, consumed, producers, consumers, disabled) = slow.stats(LockId(l));
        prop_assert_eq!(s.produced, produced);
        prop_assert_eq!(s.consumed, consumed);
        prop_assert_eq!(s.producers, producers);
        prop_assert_eq!(s.consumers, consumers);
        prop_assert_eq!(s.disabled, disabled);
        prop_assert_eq!(fast.flow_enabled(LockId(l)), !disabled);
    }
}

proptest! {
    /// Every event stream drives the FNV-table detector and the
    /// HashMap reference model to identical observable behavior —
    /// under both configuration ablations.
    #[test]
    fn flow_detector_matches_hashmap_reference(
        args in (proptest::collection::vec(
            (0u32..4, 0u32..5, flow_event_strategy()), 1..250),
            any::<bool>(), any::<bool>())
    ) {
        let (ops, clear_regs, mem_dst) = args;
        check_flow_equivalence(&ops, clear_regs, mem_dst);
    }
}

// ---------------------------------------------------------------------
// Quantile sketch (sentinel SLO evaluation)
// ---------------------------------------------------------------------

use whodunit_core::sketch::{QuantileSketch, EPS_SHIFT};

/// Splitmix-style value stream for a seed: the "fixed seed" the
/// determinism property quantifies over.
fn sketch_stream(seed: u64, n: usize) -> Vec<u64> {
    let mut st = seed ^ 0x9E37_79B9_7F4A_7C15;
    (0..n)
        .map(|_| {
            st = st.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = st;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % 1_000_000
        })
        .collect()
}

proptest! {
    /// Merging per-epoch sketches is commutative and associative: any
    /// epoch order (and any epoch grouping) yields the same quantiles
    /// as one sketch fed the whole stream — the property that lets the
    /// sentinel evaluate SLOs over retained epochs without caring how
    /// the stream was chunked.
    #[test]
    fn sketch_merge_commutes_across_epoch_order(
        args in (any::<u64>(), 2usize..7, 1usize..40, 0usize..720)
    ) {
        let (seed, epochs, per_epoch, rot) = args;
        let vals = sketch_stream(seed, epochs * per_epoch);
        let mut whole = QuantileSketch::new();
        for &v in &vals {
            whole.record(v);
        }
        let mut parts: Vec<QuantileSketch> = vals
            .chunks(per_epoch)
            .map(|c| {
                let mut s = QuantileSketch::new();
                for &v in c {
                    s.record(v);
                }
                s
            })
            .collect();
        let rot = rot % parts.len();
        parts.rotate_left(rot);
        let mut merged = QuantileSketch::new();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.max(), whole.max());
        for q in [0u64, 100_000, 500_000, 900_000, 990_000, 1_000_000] {
            prop_assert_eq!(merged.quantile_ppm(q), whole.quantile_ppm(q));
        }
    }

    /// For a fixed seed the sketch's output is a pure function of the
    /// stream: two independently built sketches agree exactly.
    #[test]
    fn sketch_is_deterministic_for_a_fixed_seed(seed in any::<u64>()) {
        let vals = sketch_stream(seed, 257);
        let build = || {
            let mut s = QuantileSketch::new();
            for &v in &vals {
                s.record(v);
            }
            s
        };
        let (a, b) = (build(), build());
        for q in (0..=10).map(|i| i * 100_000) {
            prop_assert_eq!(a.quantile_ppm(q), b.quantile_ppm(q));
        }
    }

    /// Rank-error bound against an exact sorted reference: the
    /// estimate for quantile q is an upper bound of the exact rank-r
    /// sample and exceeds it by at most one bucket width
    /// (`max(1, v >> EPS_SHIFT)` — ~6.25% relative).
    #[test]
    fn sketch_quantile_brackets_exact_reference(
        args in (any::<u64>(), 1usize..400, 0u64..1_000_001)
    ) {
        let (seed, n, q) = args;
        let mut vals = sketch_stream(seed, n);
        let mut s = QuantileSketch::new();
        for &v in &vals {
            s.record(v);
        }
        vals.sort_unstable();
        assert_brackets_sorted(&s, &vals, q, "one stream");
    }

    /// An empty sketch holds no histogram, and nothing shows it: as
    /// either operand of a merge, through the wire form, or cloned and
    /// then recorded into, it answers exactly like the sorted vector
    /// of the observations actually made.
    #[test]
    fn sketch_empty_operands_match_sorted_reference(
        args in (any::<u64>(), 0usize..200, 0u64..1_000_001)
    ) {
        let (seed, n, q) = args;
        let mut vals = sketch_stream(seed, n);
        let empty = QuantileSketch::new();
        let mut x = QuantileSketch::new();
        for &v in &vals {
            x.record(v);
        }
        vals.sort_unstable();

        let mut empty_empty = empty.clone();
        empty_empty.merge(&empty);
        let (max, buckets) = empty.to_wire();
        prop_assert_eq!((max, buckets.len()), (0, 0));
        let rewired = QuantileSketch::from_wire(max, &buckets);
        assert_brackets_sorted(&empty_empty, &[], q, "empty + empty");
        assert_brackets_sorted(&rewired, &[], q, "from_wire(to_wire(empty))");

        let mut empty_x = empty.clone();
        empty_x.merge(&x);
        let mut x_empty = x.clone();
        x_empty.merge(&empty);
        let mut x_rewired = x.clone();
        x_rewired.merge(&rewired);
        let mut recorded = empty.clone();
        for &v in vals.iter().rev() {
            recorded.record(v);
        }
        for (s, what) in [
            (&empty_x, "empty + x"),
            (&x_empty, "x + empty"),
            (&x_rewired, "x + rewired empty"),
            (&recorded, "record after cloning empty"),
        ] {
            assert_brackets_sorted(s, &vals, q, what);
            prop_assert_eq!(s.to_wire(), x.to_wire(), "{}", what);
        }
        // The clones above left their source alone.
        assert_brackets_sorted(&empty, &[], q, "cloned-from empty");
    }
}

/// Holds `s` against the exact reference `sorted` (ascending): same
/// count and max, no quantile when empty, otherwise the estimate is an
/// upper bound of the exact rank-r sample within one bucket width.
fn assert_brackets_sorted(s: &QuantileSketch, sorted: &[u64], q: u64, what: &str) {
    assert_eq!(s.count(), sorted.len() as u64, "{what}: count");
    assert_eq!(s.max(), sorted.last().copied().unwrap_or(0), "{what}: max");
    let Some(est) = s.quantile_ppm(q) else {
        assert!(sorted.is_empty(), "{what}: no quantile over {sorted:?}");
        return;
    };
    let r = ((sorted.len() as u64 * q).div_ceil(1_000_000)).max(1) as usize;
    let exact = sorted[r - 1];
    assert!(est >= exact, "{what}: q={q} est {est} < exact {exact}");
    assert!(
        est <= exact + (exact >> EPS_SHIFT).max(1),
        "{what}: q={q} est {est} too far above exact {exact}"
    );
}
