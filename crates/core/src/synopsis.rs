//! Transaction-context synopses (§5, §7.4).
//!
//! A *synopsis* is a compact, unique, 4-byte representation of a
//! transaction context. When a stage sends a message, it piggybacks the
//! synopsis of its current transaction context instead of the full
//! context, which keeps the communication overhead small (the paper
//! measures ≈1% on TPC-W). A response carries a `#`-delimited chain
//! `synopsis(α)#synopsis(β)` whose prefix lets the original caller
//! recognize its own context and switch back to the right CCT.

use crate::context::CtxId;
use crate::ids::IdVec;
use crate::txt::{push_u32, Sink};
use std::fmt;

/// A synopsis of a transaction context.
///
/// The bits above 24 carry the generating process id and the low 24
/// bits a per-process counter, so synopses from different stages never
/// collide. The paper only requires that each stage can recognize the
/// synopses it generated itself; embedding the process id is the
/// simplest collision avoidance.
///
/// The raw value is held in a `u64` so synthetic fleet replication
/// (thousands of process-remapped replicas) stays collision-free, but
/// the packing formula is unchanged: for the paper's real deployments
/// (process ids below 256) the numeric value is exactly the classic
/// 4-byte `(proc << 24) | counter` word, which is why
/// [`Synopsis::WIRE_BYTES`] still models the paper's 4-byte overhead.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Synopsis(pub u64);

impl Synopsis {
    /// Builds a synopsis from a process id and a local counter.
    ///
    /// # Panics
    ///
    /// Panics if `counter` does not fit in 24 bits.
    pub fn new(proc_id: u32, counter: u32) -> Self {
        assert!(counter < 0x0100_0000, "synopsis counter overflow");
        Synopsis(((proc_id as u64) << 24) | counter as u64)
    }

    /// The process id embedded in this synopsis.
    pub fn proc_id(self) -> u32 {
        (self.0 >> 24) as u32
    }

    /// The per-process counter embedded in this synopsis.
    pub fn counter(self) -> u32 {
        (self.0 & 0x00ff_ffff) as u32
    }

    /// Wire size of one synopsis in bytes — the paper's 4-byte budget.
    /// Process ids beyond the 8-bit field only arise from synthetic
    /// fleet replication, never on a modelled wire.
    pub const WIRE_BYTES: u64 = 4;

    /// Writes the `Display` form, `s<proc>:<counter>`, into any
    /// [`Sink`] without formatting machinery.
    pub fn push_into<S: Sink + ?Sized>(self, out: &mut S) {
        out.put_char('s');
        push_u32(out, self.proc_id());
        out.put_char(':');
        push_u32(out, self.counter());
    }
}

impl fmt::Display for Synopsis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}:{}", self.proc_id(), self.counter())
    }
}

/// A `#`-delimited chain of synopses as carried on the wire.
///
/// A request carries a single-element chain `[synopsis(α)]`; the
/// response carries `[synopsis(α), synopsis(β)]`, i.e.
/// `synopsis(α)#synopsis(β)` in the paper's notation. Nothing limits a
/// chain to two elements: a response that itself flowed through further
/// stages keeps growing its suffix.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct SynChain(pub Vec<Synopsis>);

impl SynChain {
    /// A chain holding a single synopsis (a request).
    pub fn request(s: Synopsis) -> Self {
        SynChain(vec![s])
    }

    /// Builds the response chain `prefix#suffix` (§7.4).
    pub fn response(prefix: &SynChain, suffix: Synopsis) -> Self {
        let mut v = prefix.0.clone();
        v.push(suffix);
        SynChain(v)
    }

    /// The first synopsis in the chain, if any.
    pub fn head(&self) -> Option<Synopsis> {
        self.0.first().copied()
    }

    /// Number of synopses in the chain.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Bytes this chain occupies on the wire: 4 bytes per synopsis plus
    /// one delimiter byte between consecutive synopses.
    pub fn wire_bytes(&self) -> u64 {
        if self.0.is_empty() {
            0
        } else {
            self.0.len() as u64 * Synopsis::WIRE_BYTES + (self.0.len() as u64 - 1)
        }
    }
}

impl fmt::Display for SynChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "#")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// Per-process dictionary between transaction contexts and synopses.
///
/// The paper keeps "transaction contexts and their synopses in a
/// dictionary" (§7.4). The table maps both directions: contexts to the
/// synopsis minted for them, and received synopses back to the contexts
/// they labelled.
#[derive(Debug)]
pub struct SynopsisTable {
    proc_id: u32,
    by_ctx: IdVec<Synopsis>,
    /// The context each synopsis labels, by the synopsis's counter:
    /// counters are handed out densely from 0.
    by_counter: Vec<CtxId>,
}

impl SynopsisTable {
    /// Creates a table for the given process.
    pub fn new(proc_id: impl ProcIdLike) -> Self {
        SynopsisTable {
            proc_id: proc_id.raw(),
            by_ctx: IdVec::default(),
            by_counter: Vec::new(),
        }
    }

    /// Returns the synopsis for `ctx`, minting one on first use.
    pub fn synopsis_of(&mut self, ctx: CtxId) -> Synopsis {
        if let Some(&s) = self.by_ctx.get(ctx.0) {
            return s;
        }
        let s = Synopsis::new(self.proc_id, self.by_counter.len() as u32);
        self.by_ctx.insert(ctx.0, s);
        self.by_counter.push(ctx);
        s
    }

    /// Batched form of [`SynopsisTable::synopsis_of`]: mints (or looks
    /// up) synopses for a whole slice of contexts in one pass.
    ///
    /// The result is element-wise identical to calling `synopsis_of`
    /// once per context in slice order — the property suite holds the
    /// two paths to byte equality.
    pub fn mint_batch(&mut self, ctxs: &[CtxId]) -> Vec<Synopsis> {
        ctxs.iter().map(|&c| self.synopsis_of(c)).collect()
    }

    /// Looks up the synopsis already minted for `ctx`, if any.
    pub fn get(&self, ctx: CtxId) -> Option<Synopsis> {
        self.by_ctx.get(ctx.0).copied()
    }

    /// All minted `(raw synopsis, context)` pairs, sorted by context id
    /// — the canonical dump order the dump path and the analysis
    /// pipeline share.
    pub fn minted_sorted(&self) -> Vec<(u64, CtxId)> {
        self.by_ctx.iter().map(|(c, &s)| (s.0, CtxId(c))).collect()
    }

    /// Looks up the context a synopsis was minted for, if it is ours.
    pub fn ctx_of(&self, s: Synopsis) -> Option<CtxId> {
        if s.proc_id() != self.proc_id {
            return None;
        }
        self.by_counter.get(s.counter() as usize).copied()
    }

    /// Whether this table minted `s`.
    pub fn is_mine(&self, s: Synopsis) -> bool {
        self.ctx_of(s).is_some()
    }

    /// Number of synopses minted so far.
    pub fn len(&self) -> usize {
        self.by_counter.len()
    }

    /// Whether no synopsis has been minted yet.
    pub fn is_empty(&self) -> bool {
        self.by_counter.is_empty()
    }
}

/// Anything that can act as a process id for synopsis minting.
///
/// This avoids a hard dependency cycle between [`crate::ids`] and this
/// module while still accepting [`crate::ids::ProcId`] directly.
pub trait ProcIdLike {
    /// The raw process number.
    fn raw(&self) -> u32;
}

impl ProcIdLike for crate::ids::ProcId {
    fn raw(&self) -> u32 {
        self.0
    }
}

impl ProcIdLike for u32 {
    fn raw(&self) -> u32 {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synopsis_packs_proc_and_counter() {
        let s = Synopsis::new(3, 77);
        assert_eq!(s.proc_id(), 3);
        assert_eq!(s.counter(), 77);
        assert_eq!(s.to_string(), "s3:77");
    }

    #[test]
    #[should_panic(expected = "counter overflow")]
    fn synopsis_counter_overflow_panics() {
        let _ = Synopsis::new(0, 0x0100_0000);
    }

    #[test]
    fn minting_is_stable() {
        let mut t = SynopsisTable::new(1u32);
        let c = CtxId(4);
        let a = t.synopsis_of(c);
        let b = t.synopsis_of(c);
        assert_eq!(a, b);
        assert_eq!(t.ctx_of(a), Some(c));
        assert!(t.is_mine(a));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn foreign_synopses_are_not_mine() {
        let mut t1 = SynopsisTable::new(1u32);
        let t2 = SynopsisTable::new(2u32);
        let s = t1.synopsis_of(CtxId(0));
        assert!(!t2.is_mine(s));
        assert_eq!(t2.ctx_of(s), None);
    }

    #[test]
    fn mint_batch_matches_one_at_a_time() {
        let ctxs: Vec<CtxId> = [4u32, 9, 4, 0, 2, 9, 7].iter().map(|&c| CtxId(c)).collect();
        let mut batched = SynopsisTable::new(3u32);
        let mut singles = SynopsisTable::new(3u32);
        let got = batched.mint_batch(&ctxs);
        let want: Vec<Synopsis> = ctxs.iter().map(|&c| singles.synopsis_of(c)).collect();
        assert_eq!(got, want);
        assert_eq!(batched.minted_sorted(), singles.minted_sorted());
    }

    #[test]
    fn minted_sorted_is_in_ctx_order() {
        let mut t = SynopsisTable::new(1u32);
        t.synopsis_of(CtxId(5));
        t.synopsis_of(CtxId(1));
        t.synopsis_of(CtxId(3));
        let pairs = t.minted_sorted();
        let ctxs: Vec<u32> = pairs.iter().map(|&(_, c)| c.0).collect();
        assert_eq!(ctxs, vec![1, 3, 5]);
    }

    #[test]
    fn chain_wire_bytes_counts_delimiters() {
        let a = Synopsis::new(0, 1);
        let b = Synopsis::new(1, 2);
        let req = SynChain::request(a);
        assert_eq!(req.wire_bytes(), 4);
        let resp = SynChain::response(&req, b);
        assert_eq!(resp.wire_bytes(), 9); // 4 + '#' + 4.
        assert_eq!(resp.to_string(), "s0:1#s1:2");
        assert_eq!(resp.head(), Some(a));
    }

    #[test]
    fn empty_chain_has_no_wire_bytes() {
        assert_eq!(SynChain::default().wire_bytes(), 0);
        assert!(SynChain::default().is_empty());
    }
}
