//! Message-passing transaction propagation (§5, §7.4).
//!
//! Whodunit wraps send and receive operations. On send, the wrapper
//! computes the sender's transaction context at the send point, mints a
//! synopsis for it, and piggybacks a synopsis chain on the message. On
//! receive, the wrapper scans the chain: if any synopsis in it was
//! minted by the receiver, the message is a *response* to a request the
//! receiver sent earlier (the paper's "prefix originated from itself"
//! test) and the receiver switches back to the CCT it was using then;
//! otherwise the message is a *request* and the receiver adopts the
//! chain as its transaction context.
//!
//! This module holds the wire-level logic; [`crate::profiler`] plugs it
//! into the runtime.

use crate::context::{ContextAtom, ContextTable, CtxId};
use crate::ids::IdVec;
use crate::synopsis::{SynChain, Synopsis, SynopsisTable};
use std::collections::VecDeque;

/// What a send wrapper hands the substrate to put on the wire.
#[derive(Clone, Debug, Default)]
pub struct SendInfo {
    /// The piggybacked synopsis chain (absent when profiling is off).
    pub chain: Option<SynChain>,
    /// Extra wire bytes the piggyback occupies.
    pub extra_bytes: u64,
    /// Bookkeeping cycles to charge the sender.
    pub cycles: u64,
}

/// What a receive wrapper concluded about an incoming message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecvKind {
    /// No piggyback: the peer is unprofiled.
    Unprofiled,
    /// A request: the receiver adopts the sender's context.
    Request {
        /// The context adopted (a `Remote` context).
        ctx: CtxId,
    },
    /// A response to a request this process sent earlier.
    Response {
        /// The synopsis of ours found in the chain.
        ours: Synopsis,
        /// The context to switch back to.
        restore: CtxId,
    },
    /// A response to a request whose send-point association was
    /// already pruned (the reply arrived after the TTL — a late or
    /// duplicate answer from a slow or flaky peer). The receiver keeps
    /// its current context: adopting the chain would mis-attribute the
    /// work, and there is no base left to restore.
    Stale {
        /// The synopsis of ours found in the chain.
        ours: Synopsis,
    },
}

/// Whether an age-queue entry `(e, s)` is still the stamp of `s`'s
/// association.
fn is_live(assoc: &IdVec<(CtxId, u64)>, e: u64, s: Synopsis) -> bool {
    assoc.get(s.counter()).is_some_and(|&(_, stamp)| stamp == e)
}

/// Per-process IPC bookkeeping: the send-point associations of §7.4.
///
/// Associations are stamped with a send **epoch** and pruned once they
/// age past a TTL (see [`IpcTracker::advance_epoch`]). Without pruning
/// every request whose answer never arrives — a crashed peer, a dropped
/// reply — leaks its dictionary entry forever, which matters exactly in
/// the degraded runs where answers go missing.
///
/// A tracker serves one process and its one [`SynopsisTable`]: every
/// association is keyed by a synopsis that table minted, so it is held
/// at the synopsis's counter, which the table hands out densely.
#[derive(Debug, Default)]
pub struct IpcTracker {
    /// Synopsis counter → the base context to restore when the
    /// response comes back ("switch back to the CCT from which the
    /// request originated"), stamped with the epoch of the send.
    assoc: IdVec<(CtxId, u64)>,
    /// Age queue for lazy pruning: `(epoch at send, synopsis)` in send
    /// order. An entry whose stamp no longer matches `assoc` was
    /// refreshed by a later send of the same synopsis and is skipped.
    age: VecDeque<(u64, Synopsis)>,
    /// Length of `age` at which the next send compacts it.
    compact_at: usize,
    /// Current epoch (advanced by [`IpcTracker::advance_epoch`]).
    epoch: u64,
    /// Associations pruned unanswered so far.
    pub pruned: u64,
    /// Total piggyback bytes sent (the paper reports 0.95 MB of
    /// transaction context against 92.52 MB of data on TPC-W).
    pub piggyback_bytes: u64,
    /// Messages sent with a piggyback.
    pub messages: u64,
}

impl IpcTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Associations still held (answered or not, until pruned),
    /// counted by a walk of the table: no message path reads it.
    pub fn pending(&self) -> usize {
        self.assoc.iter().count()
    }

    /// Advances the epoch clock and prunes associations older than
    /// `ttl` epochs. The caller decides what an epoch is — the
    /// profiler advances once per send, making the TTL "survives this
    /// many subsequent sends".
    pub fn advance_epoch(&mut self, ttl: u64) {
        self.epoch += 1;
        while let Some(&(e, s)) = self.age.front() {
            if e.saturating_add(ttl) >= self.epoch {
                break;
            }
            self.age.pop_front();
            // Lazy deletion: only drop the association if this queue
            // entry is still its live stamp.
            if is_live(&self.assoc, e, s) {
                self.assoc.remove(s.counter());
                self.pruned += 1;
            }
        }
    }

    /// Drops the age-queue entries a later send of the same synopsis
    /// superseded. `advance_epoch` skips them anyway, so nothing
    /// observable changes; what changes is that the queue stays the size
    /// of `assoc` instead of growing by 16 bytes per send for `ttl`
    /// sends (4 MiB on the busiest TPC-W stage, regrown every run).
    /// Runs when the queue has doubled since the last time: amortised
    /// O(1) a send.
    fn compact_age(&mut self) {
        let assoc = &self.assoc;
        self.age.retain(|&(e, s)| is_live(assoc, e, s));
        self.compact_at = (2 * self.age.len()).max(64);
    }

    /// The send wrapper (§7.4).
    ///
    /// `base` is the sender thread's base transaction context and
    /// `ctx_at_send` the full context at the send point (base plus call
    /// path). The outgoing chain is the base context's remote prefix (if
    /// the work arrived from upstream) extended with a synopsis of the
    /// full send-point context; receivers that find their own synopsis
    /// in the chain recognize a response, everyone else sees a request
    /// with complete upstream history.
    pub fn send(
        &mut self,
        ctxs: &ContextTable,
        syns: &mut SynopsisTable,
        base: CtxId,
        ctx_at_send: CtxId,
    ) -> SynChain {
        let local = syns.synopsis_of(ctx_at_send);
        if self.age.len() >= self.compact_at {
            self.compact_age();
        }
        self.assoc.insert(local.counter(), (base, self.epoch));
        self.age.push_back((self.epoch, local));
        let prefix = match ctxs.value(base).atoms().first() {
            Some(ContextAtom::Remote(prefix)) => prefix.0.as_slice(),
            _ => &[],
        };
        let mut chain = SynChain(Vec::with_capacity(prefix.len() + 1));
        chain.0.extend_from_slice(prefix);
        chain.0.push(local);
        self.piggyback_bytes += chain.wire_bytes();
        self.messages += 1;
        chain
    }

    /// The receive wrapper (§7.4).
    ///
    /// Scans the chain from the end for a synopsis this process minted;
    /// the deepest such synopsis is the most recent request we sent, so
    /// the message is its response. Otherwise the chain is adopted as a
    /// remote context.
    pub fn recv(
        &mut self,
        ctxs: &mut ContextTable,
        syns: &SynopsisTable,
        chain: Option<&SynChain>,
    ) -> RecvKind {
        let Some(chain) = chain else {
            return RecvKind::Unprofiled;
        };
        for &s in chain.0.iter().rev() {
            if syns.is_mine(s) {
                return match self.assoc.get(s.counter()) {
                    Some(&(restore, _)) => RecvKind::Response { ours: s, restore },
                    // Ours, but the association aged out: a late reply,
                    // not a fresh request — never adopt a chain that
                    // contains our own synopsis.
                    None => RecvKind::Stale { ours: s },
                };
            }
        }
        RecvKind::Request {
            ctx: ctxs.from_remote(chain),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameId;
    use crate::ids::ProcId;
    use std::collections::HashMap;

    fn setup(p: u32) -> (ContextTable, SynopsisTable, IpcTracker) {
        (
            ContextTable::default(),
            SynopsisTable::new(ProcId(p)),
            IpcTracker::new(),
        )
    }

    #[test]
    fn request_then_response_roundtrip() {
        // Caller (proc 1) sends a request; callee (proc 2) adopts it,
        // responds; caller recognizes the response and restores.
        let (mut ctxs1, mut syns1, mut ipc1) = setup(1);
        let (mut ctxs2, mut syns2, mut ipc2) = setup(2);

        // Caller at base ROOT, send point under call path [foo].
        let ctx_send = ctxs1.append_path(CtxId::ROOT, &[FrameId(1)]);
        let req = ipc1.send(&ctxs1, &mut syns1, CtxId::ROOT, ctx_send);
        assert_eq!(req.len(), 1);

        // Callee receives a request.
        let kind = ipc2.recv(&mut ctxs2, &syns2, Some(&req));
        let callee_base = match kind {
            RecvKind::Request { ctx } => ctx,
            k => panic!("expected request, got {k:?}"),
        };

        // Callee responds from a send point under its own path.
        let callee_send = ctxs2.append_path(callee_base, &[FrameId(9)]);
        let resp = ipc2.send(&ctxs2, &mut syns2, callee_base, callee_send);
        assert_eq!(resp.len(), 2, "response must be prefix#suffix");
        assert_eq!(resp.0[0], req.0[0]);

        // Caller recognizes its own prefix.
        let kind = ipc1.recv(&mut ctxs1, &syns1, Some(&resp));
        match kind {
            RecvKind::Response { ours, restore } => {
                assert_eq!(ours, req.0[0]);
                assert_eq!(restore, CtxId::ROOT);
            }
            k => panic!("expected response, got {k:?}"),
        }
    }

    #[test]
    fn three_tier_middle_stage_disambiguates() {
        // squid → tomcat → mysql: tomcat must see mysql's reply as a
        // response (its own synopsis is in the chain) even though the
        // chain *head* is squid's.
        let (mut ctxs_s, mut syns_s, mut ipc_s) = setup(1);
        let (mut ctxs_t, mut syns_t, mut ipc_t) = setup(2);
        let (mut ctxs_m, mut syns_m, mut ipc_m) = setup(3);

        let s_send = ctxs_s.append_path(CtxId::ROOT, &[FrameId(1)]);
        let req_st = ipc_s.send(&ctxs_s, &mut syns_s, CtxId::ROOT, s_send);

        let t_base = match ipc_t.recv(&mut ctxs_t, &syns_t, Some(&req_st)) {
            RecvKind::Request { ctx } => ctx,
            k => panic!("{k:?}"),
        };
        let t_send = ctxs_t.append_path(t_base, &[FrameId(2)]);
        let req_tm = ipc_t.send(&ctxs_t, &mut syns_t, t_base, t_send);
        assert_eq!(req_tm.len(), 2, "request chain carries upstream prefix");

        let m_base = match ipc_m.recv(&mut ctxs_m, &syns_m, Some(&req_tm)) {
            RecvKind::Request { ctx } => ctx,
            k => panic!("mysql must see a request, got {k:?}"),
        };
        let m_send = ctxs_m.append_path(m_base, &[FrameId(3)]);
        let resp_mt = ipc_m.send(&ctxs_m, &mut syns_m, m_base, m_send);
        assert_eq!(resp_mt.len(), 3);

        // Tomcat: chain head is squid's synopsis, but tomcat's own is
        // inside — must classify as response and restore t_base.
        match ipc_t.recv(&mut ctxs_t, &syns_t, Some(&resp_mt)) {
            RecvKind::Response { restore, .. } => assert_eq!(restore, t_base),
            k => panic!("tomcat must see a response, got {k:?}"),
        }

        // Tomcat then responds to squid.
        let t_send2 = ctxs_t.append_path(t_base, &[FrameId(4)]);
        let resp_ts = ipc_t.send(&ctxs_t, &mut syns_t, t_base, t_send2);
        match ipc_s.recv(&mut ctxs_s, &syns_s, Some(&resp_ts)) {
            RecvKind::Response { restore, .. } => assert_eq!(restore, CtxId::ROOT),
            k => panic!("squid must see a response, got {k:?}"),
        }
    }

    #[test]
    fn unpiggybacked_messages_are_unprofiled() {
        let (mut ctxs, syns, mut ipc) = setup(1);
        assert_eq!(ipc.recv(&mut ctxs, &syns, None), RecvKind::Unprofiled);
    }

    #[test]
    fn two_callers_paths_reach_callee_as_distinct_contexts() {
        // Figure 6/7: RPCs through foo and bar must establish two
        // different transaction contexts at the callee.
        let (mut ctxs1, mut syns1, mut ipc1) = setup(1);
        let (mut ctxs2, syns2, mut ipc2) = setup(2);
        let foo = ctxs1.append_path(CtxId::ROOT, &[FrameId(1), FrameId(10)]);
        let bar = ctxs1.append_path(CtxId::ROOT, &[FrameId(2), FrameId(10)]);
        let req_foo = ipc1.send(&ctxs1, &mut syns1, CtxId::ROOT, foo);
        let req_bar = ipc1.send(&ctxs1, &mut syns1, CtxId::ROOT, bar);
        let a = ipc2.recv(&mut ctxs2, &syns2, Some(&req_foo));
        let b = ipc2.recv(&mut ctxs2, &syns2, Some(&req_bar));
        match (a, b) {
            (RecvKind::Request { ctx: ca }, RecvKind::Request { ctx: cb }) => {
                assert_ne!(ca, cb);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unanswered_associations_age_out() {
        let (mut ctxs, mut syns, mut ipc) = setup(1);
        let c = ctxs.append_path(CtxId::ROOT, &[FrameId(1)]);
        let req = ipc.send(&ctxs, &mut syns, CtxId::ROOT, c);
        assert_eq!(ipc.pending(), 1);
        // TTL 3: survives three epochs, pruned on the fourth.
        for _ in 0..3 {
            ipc.advance_epoch(3);
        }
        assert_eq!(ipc.pending(), 1);
        ipc.advance_epoch(3);
        assert_eq!(ipc.pending(), 0);
        assert_eq!(ipc.pruned, 1);
        // The late reply is now stale, not a request.
        let mut chain = req.clone();
        chain.0.push(Synopsis::new(2, 1));
        match ipc.recv(&mut ctxs, &syns, Some(&chain)) {
            RecvKind::Stale { ours } => assert_eq!(ours, req.0[0]),
            k => panic!("expected stale, got {k:?}"),
        }
    }

    #[test]
    fn resend_refreshes_the_stamp() {
        let (mut ctxs, mut syns, mut ipc) = setup(1);
        let c = ctxs.append_path(CtxId::ROOT, &[FrameId(1)]);
        let req = ipc.send(&ctxs, &mut syns, CtxId::ROOT, c);
        ipc.advance_epoch(2);
        ipc.advance_epoch(2);
        // Re-send of the same context re-stamps the same synopsis.
        ipc.send(&ctxs, &mut syns, CtxId::ROOT, c);
        ipc.advance_epoch(2);
        // The original entry's age-queue slot expires here, but the
        // refreshed stamp keeps the association alive (lazy deletion).
        assert_eq!(ipc.pending(), 1);
        assert_eq!(ipc.pruned, 0);
        match ipc.recv(&mut ctxs, &syns, Some(&req)) {
            RecvKind::Response { restore, .. } => assert_eq!(restore, CtxId::ROOT),
            k => panic!("expected response, got {k:?}"),
        }
    }

    #[test]
    fn age_queue_stays_the_size_of_the_associations() {
        // Eight send points re-sent round-robin under a TTL that never
        // expires them: one live queue entry each, and the superseded
        // ones must not pile up behind them.
        let (mut ctxs, mut syns, mut ipc) = setup(1);
        let points: Vec<CtxId> = (0..8)
            .map(|f| ctxs.append_path(CtxId::ROOT, &[FrameId(f)]))
            .collect();
        for i in 0..10_000 {
            ipc.advance_epoch(1_000_000);
            ipc.send(&ctxs, &mut syns, CtxId::ROOT, points[i % 8]);
            assert!(ipc.age.len() <= 64, "{} entries at send {i}", ipc.age.len());
        }
        assert_eq!(ipc.pending(), 8);
        assert_eq!(ipc.pruned, 0);
    }

    #[test]
    fn compaction_changes_no_pruning_decision() {
        // Model: synopsis → epoch of its last send, pruned once that is
        // more than `ttl` epochs old. Three sends in four re-stamp one of
        // 4 hot points, so most of the 300 entries a TTL's worth of sends
        // queues are superseded and the queue compacts again and again,
        // while the cold points expire unanswered.
        const TTL: u64 = 300;
        let (mut ctxs, mut syns, mut ipc) = setup(1);
        let points: Vec<CtxId> = (0..2_000)
            .map(|f| ctxs.append_path(CtxId::ROOT, &[FrameId(f)]))
            .collect();
        let mut model: HashMap<Synopsis, u64> = HashMap::new();
        let (mut epoch, mut pruned) = (0u64, 0u64);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pick = if x & 3 != 0 {
                (x >> 2) % 4
            } else {
                (x >> 2) % 2_000
            };
            epoch += 1;
            let before = model.len();
            model.retain(|_, stamp| *stamp + TTL >= epoch);
            pruned += (before - model.len()) as u64;
            ipc.advance_epoch(TTL);
            let chain = ipc.send(&ctxs, &mut syns, CtxId::ROOT, points[pick as usize]);
            model.insert(chain.0[0], epoch);
            assert_eq!(ipc.pending(), model.len());
            assert_eq!(ipc.pruned, pruned);
        }
        assert!(pruned > 0, "the pattern must expire something");
    }

    /// The tracker as it was while `assoc` was a `HashMap` keyed by the
    /// whole synopsis, with its own age queue and compaction: the oracle
    /// of `dense_table_decides_as_the_hashed_one`.
    #[derive(Default)]
    struct HashedTracker {
        assoc: HashMap<Synopsis, (CtxId, u64)>,
        age: VecDeque<(u64, Synopsis)>,
        compact_at: usize,
        epoch: u64,
        pruned: u64,
    }

    impl HashedTracker {
        fn advance_epoch(&mut self, ttl: u64) {
            self.epoch += 1;
            while let Some(&(e, s)) = self.age.front() {
                if e.saturating_add(ttl) >= self.epoch {
                    break;
                }
                self.age.pop_front();
                if self.assoc.get(&s).is_some_and(|&(_, stamp)| stamp == e) {
                    self.assoc.remove(&s);
                    self.pruned += 1;
                }
            }
        }

        fn send(&mut self, local: Synopsis, base: CtxId) {
            if self.age.len() >= self.compact_at {
                let assoc = &self.assoc;
                self.age
                    .retain(|&(e, s)| assoc.get(&s).is_some_and(|&(_, stamp)| stamp == e));
                self.compact_at = (2 * self.age.len()).max(64);
            }
            self.assoc.insert(local, (base, self.epoch));
            self.age.push_back((self.epoch, local));
        }

        fn recv(
            &self,
            ctxs: &mut ContextTable,
            syns: &SynopsisTable,
            chain: &SynChain,
        ) -> RecvKind {
            for &s in chain.0.iter().rev() {
                if syns.is_mine(s) {
                    return match self.assoc.get(&s) {
                        Some(&(restore, _)) => RecvKind::Response { ours: s, restore },
                        None => RecvKind::Stale { ours: s },
                    };
                }
            }
            RecvKind::Request {
                ctx: ctxs.from_remote(chain),
            }
        }
    }

    #[test]
    fn dense_table_decides_as_the_hashed_one() {
        // Random mixes of sends from 12 send points under two bases (a
        // re-send refreshes a stamp), epoch advances under a small TTL,
        // replies that carry one of our synopses (answered in time, or
        // after the association was pruned) and foreign requests.
        let (mut responses, mut stale, mut requests, mut pruned) = (0, 0, 0, 0);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..64 {
            let ttl = 2 + next() % 6;
            let (mut ctxs, mut syns, mut ipc) = setup(1);
            let mut old = HashedTracker::default();
            let upstream = SynChain(vec![Synopsis::new(2, 7)]);
            let remote = ctxs.from_remote(&upstream);
            let mut sent: Vec<Synopsis> = Vec::new();
            for _ in 0..2_000 {
                let r = next();
                let foreign = Synopsis::new(2 + (r >> 8) as u32 % 2, (r >> 16) as u32 % 32);
                match r % 16 {
                    0..=5 => {
                        let base = if r & 0x100 == 0 { CtxId::ROOT } else { remote };
                        let point = ctxs.append_path(base, &[FrameId((r >> 9) as u32 % 12)]);
                        let chain = ipc.send(&ctxs, &mut syns, base, point);
                        let local = *chain.0.last().expect("a send chain ends in ours");
                        old.send(local, base);
                        sent.push(local);
                    }
                    6..=8 => {
                        ipc.advance_epoch(ttl);
                        old.advance_epoch(ttl);
                    }
                    9..=12 if !sent.is_empty() => {
                        let ours = sent[(r >> 20) as usize % sent.len()];
                        let chain = SynChain(vec![foreign, ours, Synopsis::new(3, 1)]);
                        let want = old.recv(&mut ctxs, &syns, &chain);
                        let got = ipc.recv(&mut ctxs, &syns, Some(&chain));
                        assert_eq!(got, want);
                        match got {
                            RecvKind::Response { .. } => responses += 1,
                            RecvKind::Stale { .. } => stale += 1,
                            k => panic!("a chain with ours in it read as {k:?}"),
                        }
                    }
                    _ => {
                        let chain = SynChain(vec![foreign, Synopsis::new(3, 5)]);
                        let want = old.recv(&mut ctxs, &syns, &chain);
                        let got = ipc.recv(&mut ctxs, &syns, Some(&chain));
                        assert_eq!(got, want);
                        assert!(matches!(got, RecvKind::Request { .. }), "{got:?}");
                        requests += 1;
                    }
                }
                assert_eq!(ipc.pending(), old.assoc.len());
                assert_eq!(ipc.pruned, old.pruned);
            }
            pruned += ipc.pruned;
        }
        assert!(
            responses > 0 && stale > 0 && requests > 0 && pruned > 0,
            "responses {responses}, stale {stale}, requests {requests}, pruned {pruned}"
        );
    }

    #[test]
    fn zero_advances_never_prune() {
        let (mut ctxs, mut syns, mut ipc) = setup(1);
        let c = ctxs.append_path(CtxId::ROOT, &[FrameId(1)]);
        ipc.send(&ctxs, &mut syns, CtxId::ROOT, c);
        assert_eq!(ipc.pending(), 1, "no epoch advance, no pruning");
        // And a huge TTL never prunes even across many epochs.
        for _ in 0..100 {
            ipc.advance_epoch(u64::MAX);
        }
        assert_eq!(ipc.pending(), 1);
    }

    #[test]
    fn duplicate_response_is_idempotent() {
        // The same response chain received twice restores the same
        // base both times and never creates a second remote context.
        let (mut ctxs1, mut syns1, mut ipc1) = setup(1);
        let (mut ctxs2, mut syns2, mut ipc2) = setup(2);
        let c = ctxs1.append_path(CtxId::ROOT, &[FrameId(1)]);
        let req = ipc1.send(&ctxs1, &mut syns1, CtxId::ROOT, c);
        let callee_base = match ipc2.recv(&mut ctxs2, &syns2, Some(&req)) {
            RecvKind::Request { ctx } => ctx,
            k => panic!("{k:?}"),
        };
        let resp = ipc2.send(&ctxs2, &mut syns2, callee_base, callee_base);
        let a = ipc1.recv(&mut ctxs1, &syns1, Some(&resp));
        let b = ipc1.recv(&mut ctxs1, &syns1, Some(&resp));
        assert_eq!(a, b);
        assert!(matches!(a, RecvKind::Response { restore, .. } if restore == CtxId::ROOT));
    }

    #[test]
    fn piggyback_accounting_accumulates() {
        let (mut ctxs, mut syns, mut ipc) = setup(1);
        let c = ctxs.append_path(CtxId::ROOT, &[FrameId(1)]);
        ipc.send(&ctxs, &mut syns, CtxId::ROOT, c);
        ipc.send(&ctxs, &mut syns, CtxId::ROOT, c);
        assert_eq!(ipc.messages, 2);
        assert_eq!(ipc.piggyback_bytes, 8);
    }
}
