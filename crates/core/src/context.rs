//! Transaction contexts (§2, §4.1).
//!
//! A transaction context is the complete execution history of a request
//! through the stages of a multi-tier application: the call paths and
//! handler/stage sequences of every stage it crossed, concatenated in
//! execution order. Contexts are interned into [`CtxId`]s so the rest of
//! the profiler (dictionaries, CCT registries, crosstalk pairs) can use
//! cheap integer keys.
//!
//! Two normalization rules from §4.1 apply when a handler or stage frame
//! is appended:
//!
//! 1. **Collapse**: consecutive occurrences of the same handler (a
//!    handler rescheduled until its I/O completes) are collapsed into
//!    one occurrence.
//! 2. **Loop pruning**: when appending a handler that already occurs in
//!    the trailing handler sequence (e.g. `read, write, read, write, …`
//!    on a persistent connection), the suffix that closes the loop is
//!    pruned: `[accept, read, write] + read → [accept, read]`.

use crate::frame::FrameId;
use crate::hash::Fnv64;
use crate::synopsis::{SynChain, Synopsis};
use std::fmt;
use std::sync::Arc;

/// An interned transaction context.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CtxId(pub u32);

impl CtxId {
    /// The root (empty) context: a transaction that has not crossed any
    /// produce/consume point yet.
    pub const ROOT: CtxId = CtxId(0);
}

impl fmt::Display for CtxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx{}", self.0)
    }
}

/// One element of a transaction context.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ContextAtom {
    /// An event handler or SEDA stage executed for the transaction.
    Frame(FrameId),
    /// A call path captured at a produce point (shared-memory produce or
    /// message send). `Arc` (not `Rc`) keeps context values `Send +
    /// Sync`; nothing in the workspace moves one across threads, so
    /// that is headroom for an embedder, not a requirement of ours.
    Path(Arc<[FrameId]>),
    /// A synopsis chain received from another process; it stands for the
    /// entire upstream history, which only the stitcher can expand.
    Remote(SynChain),
}

/// A context atom by its borrowed parts: what the intern table hashes
/// and compares when the caller holds the pieces of a value (a parent
/// context and a call stack, a received chain) and not the value.
#[derive(Clone, Copy)]
enum AtomRef<'a> {
    Frame(FrameId),
    Path(&'a [FrameId]),
    Remote(&'a [Synopsis]),
}

impl ContextAtom {
    fn as_ref(&self) -> AtomRef<'_> {
        match self {
            ContextAtom::Frame(f) => AtomRef::Frame(*f),
            ContextAtom::Path(p) => AtomRef::Path(p),
            ContextAtom::Remote(c) => AtomRef::Remote(&c.0),
        }
    }
}

impl AtomRef<'_> {
    /// Folds the atom into a running [`TransactionContext::stable_hash`].
    fn hash_into(self, h: &mut Fnv64) {
        match self {
            AtomRef::Frame(f) => {
                h.write_u64(1);
                h.write_u64(f.0 as u64);
            }
            AtomRef::Path(p) => {
                h.write_u64(2);
                h.write_u64(p.len() as u64);
                for f in p {
                    h.write_u64(f.0 as u64);
                }
            }
            AtomRef::Remote(c) => {
                h.write_u64(3);
                h.write_u64(c.len() as u64);
                for s in c {
                    h.write_u64(s.0);
                }
            }
        }
    }

    fn is(self, atom: &ContextAtom) -> bool {
        match (self, atom) {
            (AtomRef::Frame(f), ContextAtom::Frame(g)) => f == *g,
            (AtomRef::Path(p), ContextAtom::Path(q)) => *p == **q,
            (AtomRef::Remote(c), ContextAtom::Remote(d)) => *c == *d.0,
            _ => false,
        }
    }

    fn to_atom(self) -> ContextAtom {
        match self {
            AtomRef::Frame(f) => ContextAtom::Frame(f),
            AtomRef::Path(p) => ContextAtom::Path(p.into()),
            AtomRef::Remote(c) => ContextAtom::Remote(SynChain(c.to_vec())),
        }
    }
}

/// Normalization policy applied when appending handler/stage frames.
#[derive(Clone, Copy, Debug)]
pub struct ContextPolicy {
    /// Collapse consecutive occurrences of the same frame (§4.1).
    pub collapse_consecutive: bool,
    /// Prune suffixes that close a loop in the frame sequence (§4.1).
    ///
    /// The paper notes this is "not strictly necessary for profiling"
    /// and that the full context may be useful for debugging; turning
    /// this off keeps complete histories.
    pub prune_loops: bool,
}

impl Default for ContextPolicy {
    fn default() -> Self {
        ContextPolicy {
            collapse_consecutive: true,
            prune_loops: true,
        }
    }
}

impl ContextPolicy {
    /// The debugging policy: keep complete, unpruned histories.
    pub fn full_history() -> Self {
        ContextPolicy {
            collapse_consecutive: false,
            prune_loops: false,
        }
    }
}

/// What appending a handler/stage frame does to an atom sequence.
enum FrameStep {
    /// The result is the first `n` atoms (collapse keeps all of them,
    /// loop pruning a proper prefix).
    Keep(usize),
    /// The frame is appended.
    Push,
}

/// The §4.1 collapse and loop-pruning rules for `atoms + frame`.
fn frame_step(atoms: &[ContextAtom], frame: FrameId, policy: ContextPolicy) -> FrameStep {
    if policy.collapse_consecutive {
        if let Some(ContextAtom::Frame(last)) = atoms.last() {
            if *last == frame {
                return FrameStep::Keep(atoms.len());
            }
        }
    }
    if policy.prune_loops {
        // The window of trailing `Frame` atoms that normalization may
        // inspect; pruning never reaches across a `Path` or `Remote`
        // atom because those mark a different stage's history.
        let run_start = atoms
            .iter()
            .rposition(|a| !matches!(a, ContextAtom::Frame(_)))
            .map(|i| i + 1)
            .unwrap_or(0);
        let pos = atoms[run_start..]
            .iter()
            .position(|a| matches!(a, ContextAtom::Frame(f) if *f == frame));
        if let Some(p) = pos {
            return FrameStep::Keep(run_start + p + 1);
        }
    }
    FrameStep::Push
}

/// An owned transaction context value (a sequence of atoms).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct TransactionContext(pub Vec<ContextAtom>);

impl TransactionContext {
    /// The empty context.
    pub fn root() -> Self {
        TransactionContext(Vec::new())
    }

    /// The atoms of this context.
    pub fn atoms(&self) -> &[ContextAtom] {
        &self.0
    }

    /// Appends a handler/stage frame under `policy`, applying the §4.1
    /// collapse and loop-pruning rules to the trailing frame run.
    pub fn append_frame(&self, frame: FrameId, policy: ContextPolicy) -> Self {
        let mut atoms = self.0.clone();
        match frame_step(&atoms, frame, policy) {
            FrameStep::Keep(n) => atoms.truncate(n),
            FrameStep::Push => atoms.push(ContextAtom::Frame(frame)),
        }
        TransactionContext(atoms)
    }

    /// Appends a call path captured at a produce point.
    pub fn append_path(&self, path: &[FrameId]) -> Self {
        let mut atoms = self.0.clone();
        atoms.push(ContextAtom::Path(path.into()));
        TransactionContext(atoms)
    }

    /// Builds a context that stands for a remote upstream history.
    pub fn from_remote(chain: SynChain) -> Self {
        TransactionContext(vec![ContextAtom::Remote(chain)])
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether this is the root (empty) context.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// A stable FNV-1a hash of the context value.
    ///
    /// This is the key of a [`ContextTable`]'s value index. Ids never
    /// depend on it: one dictionary mints dense ids in first-occurrence
    /// order (the pipeline's (stage, cct) scan). It must still stay a
    /// pure function of the atom sequence — never of interning order,
    /// table state, or the std `Hasher` (whose keys are unspecified
    /// across releases) — because a child's hash continues from its
    /// parent's stored one.
    pub fn stable_hash(&self) -> u64 {
        hash_atoms(&self.0)
    }
}

fn hash_atoms(atoms: &[ContextAtom]) -> u64 {
    let mut h = Fnv64::new();
    for a in atoms {
        a.as_ref().hash_into(&mut h);
    }
    h.finish()
}

/// One slot of a [`ValueIndex`]: the value's stable hash plus its arena
/// id biased by one so the zeroed slot means "empty".
#[derive(Debug, Clone, Copy, Default)]
struct IndexSlot {
    hash: u64,
    idp1: u32,
}

/// Open-addressed index from [`TransactionContext::stable_hash`] into an
/// id-ordered value arena.
///
/// The intern table below used to keep a second `HashMap` from the
/// *full context value* to its id — a complete copy of every chain just
/// to answer "seen before?". This index stores only `(hash, id)` pairs;
/// the arena itself is the single owner of each value, and a probe
/// compares against the arena entry only when the 64-bit hashes match.
/// Linear probing over a power-of-two table; values are never removed.
#[derive(Debug, Clone, Default)]
struct ValueIndex {
    slots: Vec<IndexSlot>,
    len: usize,
}

impl ValueIndex {
    /// Looks up the arena id of `value` (whose stable hash is `hash`).
    fn get(&self, values: &[TransactionContext], hash: u64, value: &TransactionContext) -> Option<u32> {
        self.find(hash, |id| values[id as usize] == *value)
    }

    /// Looks up the arena id recorded under `hash` whose value `is`
    /// accepts — the caller compares against the arena however it holds
    /// the candidate (whole, or as borrowed parts).
    fn find(&self, hash: u64, is: impl Fn(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let s = self.slots[i];
            if s.idp1 == 0 {
                return None;
            }
            if s.hash == hash && is(s.idp1 - 1) {
                return Some(s.idp1 - 1);
            }
            i = (i + 1) & mask;
        }
    }

    /// Records `hash → id`. The caller has already established the value
    /// is absent (ids are dense and minted once per distinct value).
    fn insert(&mut self, hash: u64, id: u32) {
        if self.slots.len() * 7 <= (self.len + 1) * 8 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        while self.slots[i].idp1 != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = IndexSlot { hash, idp1: id + 1 };
        self.len += 1;
    }

    /// Doubles the table, re-placing every occupied slot. Stored hashes
    /// make this a straight re-probe — no value re-hashing.
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![IndexSlot::default(); cap]);
        let mask = cap - 1;
        for s in old {
            if s.idp1 == 0 {
                continue;
            }
            let mut i = (s.hash as usize) & mask;
            while self.slots[i].idp1 != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }
}

/// Intern table for transaction contexts.
///
/// [`CtxId::ROOT`] is always present and maps to the empty context.
///
/// # Examples
///
/// The §4.1 loop-pruning rule on a persistent connection's handler
/// sequence:
///
/// ```
/// use whodunit_core::context::{ContextTable, CtxId};
/// use whodunit_core::frame::FrameId;
///
/// let mut t = ContextTable::default();
/// let (accept, read, write) = (FrameId(0), FrameId(1), FrameId(2));
/// let c = t.append_frame(CtxId::ROOT, accept);
/// let c = t.append_frame(c, read);
/// let after_read = c;
/// let c = t.append_frame(c, write);
/// // The next read on the same connection closes a loop and prunes:
/// assert_eq!(t.append_frame(c, read), after_read);
/// ```
#[derive(Debug)]
pub struct ContextTable {
    index: ValueIndex,
    values: Vec<TransactionContext>,
    /// `values[i].stable_hash()`, kept so a child's hash continues from
    /// its parent's (FNV-1a is a running state).
    hashes: Vec<u64>,
    policy: ContextPolicy,
}

impl Default for ContextTable {
    fn default() -> Self {
        Self::new(ContextPolicy::default())
    }
}

/// Table equality is *value* equality: two tables holding the same
/// values in the same id order are the same dictionary, whatever the
/// incidental layout of their hash indices (capacity, probe positions).
impl PartialEq for ContextTable {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}

impl ContextTable {
    /// Creates a table with the given normalization policy.
    pub fn new(policy: ContextPolicy) -> Self {
        let mut table = ContextTable {
            index: ValueIndex::default(),
            values: Vec::new(),
            hashes: Vec::new(),
            policy,
        };
        let root = TransactionContext::root();
        table.mint(root.stable_hash(), root);
        table
    }

    /// Gives a value not yet in the table the next id.
    fn mint(&mut self, hash: u64, value: TransactionContext) -> CtxId {
        let id = u32::try_from(self.values.len()).expect("more than u32::MAX transaction contexts");
        self.index.insert(hash, id);
        self.values.push(value);
        self.hashes.push(hash);
        CtxId(id)
    }

    /// Interns `ctx`'s first `keep` atoms followed by `tail`, looking
    /// the value up by those borrowed parts; it is built only when it
    /// is new.
    fn intern_parts(&mut self, ctx: CtxId, keep: usize, tail: Option<AtomRef<'_>>) -> CtxId {
        let parent = &self.values[ctx.0 as usize].0;
        let prefix = &parent[..keep];
        let mut h = if keep == parent.len() {
            Fnv64::with_state(self.hashes[ctx.0 as usize])
        } else {
            Fnv64::with_state(hash_atoms(prefix))
        };
        if let Some(t) = tail {
            t.hash_into(&mut h);
        }
        let hash = h.finish();
        let hit = self.index.find(hash, |id| {
            let v = &self.values[id as usize].0;
            match (tail, v.split_last()) {
                (None, _) => v[..] == *prefix,
                (Some(t), Some((last, rest))) => t.is(last) && *rest == *prefix,
                (Some(_), None) => false,
            }
        });
        if let Some(id) = hit {
            return CtxId(id);
        }
        let mut atoms = Vec::with_capacity(keep + usize::from(tail.is_some()));
        atoms.extend_from_slice(prefix);
        atoms.extend(tail.map(AtomRef::to_atom));
        self.mint(hash, TransactionContext(atoms))
    }

    /// The normalization policy in force.
    pub fn policy(&self) -> ContextPolicy {
        self.policy
    }

    /// Interns an owned context value. The value is moved into the
    /// arena on first sight — never cloned.
    pub fn intern(&mut self, value: TransactionContext) -> CtxId {
        let hash = value.stable_hash();
        match self.index.get(&self.values, hash, &value) {
            Some(id) => CtxId(id),
            None => self.mint(hash, value),
        }
    }

    /// Returns the value of an interned context.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn value(&self, id: CtxId) -> &TransactionContext {
        &self.values[id.0 as usize]
    }

    /// Interns `ctx + frame` under the table's policy (§4.1).
    pub fn append_frame(&mut self, ctx: CtxId, frame: FrameId) -> CtxId {
        let atoms = self.value(ctx).atoms();
        match frame_step(atoms, frame, self.policy) {
            FrameStep::Keep(n) if n == atoms.len() => ctx,
            FrameStep::Keep(n) => self.intern_parts(ctx, n, None),
            FrameStep::Push => self.intern_parts(ctx, atoms.len(), Some(AtomRef::Frame(frame))),
        }
    }

    /// Interns `ctx + path` (a produce-point call path).
    pub fn append_path(&mut self, ctx: CtxId, path: &[FrameId]) -> CtxId {
        let n = self.value(ctx).len();
        self.intern_parts(ctx, n, Some(AtomRef::Path(path)))
    }

    /// Interns the context standing for a received remote chain.
    pub fn from_remote(&mut self, chain: &SynChain) -> CtxId {
        self.intern_parts(CtxId::ROOT, 0, Some(AtomRef::Remote(&chain.0)))
    }

    /// Number of interned contexts (including the root).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether only the root context exists.
    pub fn is_empty(&self) -> bool {
        self.values.len() <= 1
    }

    /// Iterates over all interned contexts in id order.
    pub fn iter(&self) -> impl Iterator<Item = (CtxId, &TransactionContext)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (CtxId(i as u32), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(n: u32) -> FrameId {
        FrameId(n)
    }

    #[test]
    fn root_is_interned_as_zero() {
        let t = ContextTable::default();
        assert_eq!(t.value(CtxId::ROOT), &TransactionContext::root());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn append_frame_builds_sequences() {
        let mut t = ContextTable::default();
        let a = t.append_frame(CtxId::ROOT, fid(1));
        let ab = t.append_frame(a, fid(2));
        assert_ne!(a, ab);
        assert_eq!(
            t.value(ab).atoms(),
            &[ContextAtom::Frame(fid(1)), ContextAtom::Frame(fid(2))]
        );
    }

    #[test]
    fn interning_is_stable() {
        let mut t = ContextTable::default();
        let a1 = t.append_frame(CtxId::ROOT, fid(1));
        let a2 = t.append_frame(CtxId::ROOT, fid(1));
        assert_eq!(a1, a2);
    }

    #[test]
    fn consecutive_duplicates_collapse() {
        // §4.1: `[A, B, B, B]` collapses to `[A, B]`.
        let mut t = ContextTable::default();
        let a = t.append_frame(CtxId::ROOT, fid(1));
        let ab = t.append_frame(a, fid(2));
        let abb = t.append_frame(ab, fid(2));
        assert_eq!(ab, abb);
    }

    #[test]
    fn loops_are_pruned_to_first_occurrence() {
        // §4.1: `[accept, read, write] + read → [accept, read]`.
        let mut t = ContextTable::default();
        let accept = fid(10);
        let read = fid(11);
        let write = fid(12);
        let c = t.append_frame(CtxId::ROOT, accept);
        let c = t.append_frame(c, read);
        let full = t.append_frame(c, write);
        let pruned = t.append_frame(full, read);
        assert_eq!(pruned, c);
    }

    #[test]
    fn pruning_does_not_cross_path_atoms() {
        // A `Path` atom marks another stage's history; a handler of the
        // same name after it must not prune back across it.
        let mut t = ContextTable::default();
        let h = fid(1);
        let c = t.append_frame(CtxId::ROOT, h);
        let c = t.append_path(c, &[fid(7), fid(8)]);
        let c2 = t.append_frame(c, h);
        assert_eq!(t.value(c2).len(), 3);
    }

    #[test]
    fn full_history_policy_keeps_everything() {
        let mut t = ContextTable::new(ContextPolicy::full_history());
        let c = t.append_frame(CtxId::ROOT, fid(1));
        let c = t.append_frame(c, fid(1));
        let c = t.append_frame(c, fid(2));
        let c = t.append_frame(c, fid(1));
        assert_eq!(t.value(c).len(), 4);
    }

    #[test]
    fn remote_contexts_intern() {
        let mut t = ContextTable::default();
        let chain = SynChain::request(Synopsis::new(1, 5));
        let a = t.from_remote(&chain);
        let b = t.from_remote(&chain);
        assert_eq!(a, b);
        assert!(matches!(t.value(a).atoms(), [ContextAtom::Remote(_)]));
    }

    #[test]
    fn iter_covers_all_contexts() {
        let mut t = ContextTable::default();
        t.append_frame(CtxId::ROOT, fid(1));
        t.append_frame(CtxId::ROOT, fid(2));
        assert_eq!(t.iter().count(), 3);
    }

    fn sample_values(n: u32) -> Vec<TransactionContext> {
        (0..n)
            .map(|i| {
                let base = TransactionContext::root().append_frame(fid(i % 7), ContextPolicy::default());
                if i % 3 == 0 {
                    base.append_path(&[fid(i), fid(i + 1)])
                } else if i % 3 == 1 {
                    TransactionContext::from_remote(SynChain::request(Synopsis::new(i % 5, i)))
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn stable_hash_is_a_pure_function_of_atoms() {
        for v in sample_values(40) {
            assert_eq!(v.stable_hash(), v.clone().stable_hash());
        }
        // Distinct structures hash apart (not a guarantee, but these
        // must not be trivially colliding).
        let a = TransactionContext::root().append_path(&[fid(1), fid(2)]);
        let b = TransactionContext::root()
            .append_frame(fid(1), ContextPolicy::default())
            .append_frame(fid(2), ContextPolicy::default());
        assert_ne!(a.stable_hash(), b.stable_hash());
    }
}
