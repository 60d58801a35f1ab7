//! Post-mortem profile stitching (§5 Figure 7, §7.1).
//!
//! Each stage's Whodunit instance writes its profile to disk when the
//! program exits; a final presentation phase stitches the per-stage
//! profiles together using the transaction-context annotations. The
//! [`StageDump`] types here are the on-disk format (serialized by
//! [`crate::dumpjson`]); beside them sits the stitch kernel —
//! [`walk_origin`] follows remote chains to the originating
//! transaction, [`global_frames`] / [`global_value`] put stage-local
//! frames and contexts on one table, [`fold_dump_nodes`] folds a dumped
//! CCT into a tree — shared by the one cross-stage resolver,
//! [`crate::pipeline::analyze`], and the streaming collector that is
//! byte-locked to it.
//!
//! Stage dumps are *untrusted input*: a stage may have crashed mid-run,
//! its dump may be truncated or corrupt, or an entire tier's dump may be
//! missing. Nothing in this module panics on such input — malformed
//! dumps are reported as [`StitchError`]s, the pipeline skips them with
//! a warning, and chains that cannot be resolved (because their minting
//! stage's dump is absent) surface as explicit [`UnresolvedEdge`]s
//! instead of silently vanishing.

use crate::cct::{Cct, CctNodeId};
use crate::context::{ContextAtom, TransactionContext};
use crate::frame::FrameId;
use crate::hash::FnvHashMap;
use crate::synopsis::{SynChain, Synopsis};
use crate::txt::{push_u32, Sink};
use std::fmt;
use std::sync::Arc;

/// One atom of a dumped transaction context.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DumpAtom {
    /// A handler/stage frame (index into [`StageDump::frames`]).
    Frame(u32),
    /// A call path (frame indices).
    Path(Vec<u32>),
    /// A received synopsis chain (raw synopsis values).
    Remote(Vec<u64>),
}

/// A dumped transaction context. The atoms are immutable and shared:
/// cloning a context bumps a reference count, and every table that
/// holds it (a delta, an accumulator, a dump) shares one allocation.
/// It still compares, hashes and serialises by content.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DumpContext {
    /// The atoms in order.
    pub atoms: Arc<[DumpAtom]>,
}

impl DumpContext {
    /// The received synopsis chain the context starts with, if its
    /// first atom is [`DumpAtom::Remote`]. The chain's *first* synopsis
    /// was minted by the originating transaction, its *last* by the
    /// immediate sender.
    pub fn remote_chain(&self) -> Option<&[u64]> {
        match self.atoms.first() {
            Some(DumpAtom::Remote(chain)) => Some(chain),
            _ => None,
        }
    }

    /// This context with the process id of every synopsis in its
    /// `Remote` atoms passed through `map`, copy-on-write: a context
    /// the map leaves as it is shares its atoms with `self`, and one it
    /// changes gets atoms of its own, so `self`'s — and those of every
    /// table sharing them — never change.
    pub(crate) fn with_remapped_proc(&self, map: &dyn Fn(u32) -> Option<u32>) -> DumpContext {
        let moves = |a: &DumpAtom| match a {
            DumpAtom::Remote(chain) => chain.iter().any(|&raw| remap_synopsis(raw, map) != raw),
            _ => false,
        };
        if !self.atoms.iter().any(moves) {
            return self.clone();
        }
        let atoms = self.atoms.iter().map(|a| match a {
            DumpAtom::Remote(chain) => {
                DumpAtom::Remote(chain.iter().map(|&raw| remap_synopsis(raw, map)).collect())
            }
            a => a.clone(),
        });
        DumpContext {
            atoms: atoms.collect(),
        }
    }

    /// Checks that every `Frame`/`Path` atom names one of the first
    /// `frames` entries of its stage's frame table — the one
    /// context-atom check behind [`StageDump::validate`] and
    /// [`crate::delta::StageAccumulator::apply`].
    pub fn check_frames(&self, frames: usize) -> Result<(), StitchError> {
        let mut named = self.atoms.iter().flat_map(|a| match a {
            DumpAtom::Frame(f) => std::slice::from_ref(f),
            DumpAtom::Path(p) => p.as_slice(),
            DumpAtom::Remote(_) => &[],
        });
        match named.find(|&&f| f as usize >= frames) {
            Some(&frame) => Err(StitchError::FrameOutOfRange { frame }),
            None => Ok(()),
        }
    }
}

/// `raw` with its process id passed through `map` (kept where the map
/// declines it): the one synopsis rewrite of fleet replication.
pub(crate) fn remap_synopsis(raw: u64, map: &dyn Fn(u32) -> Option<u32>) -> u64 {
    let s = Synopsis(raw);
    match map(s.proc_id()) {
        Some(p) => Synopsis::new(p, s.counter()).0,
        None => raw,
    }
}

/// One dumped CCT node.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DumpNode {
    /// Frame index (`None` for the root).
    pub frame: Option<u32>,
    /// Parent node index (`None` for the root).
    pub parent: Option<u32>,
    /// Exclusive samples.
    pub samples: u64,
    /// Exclusive cycles.
    pub cycles: u64,
    /// Exclusive call count.
    pub calls: u64,
}

impl DumpNode {
    /// The `(parent, frame)` this node hangs from as node `i` of its
    /// CCT, `None` for the root (`i == 0`): every later node must name
    /// a frame and a parent that precedes it. The one node-structure
    /// check — behind [`fold_dump_nodes`] (so every CCT rebuild),
    /// [`StageDump::validate`] and, before it mutates,
    /// [`crate::delta::StageAccumulator::apply`].
    pub fn link(&self, i: usize) -> Result<Option<(u32, u32)>, StitchError> {
        if i == 0 {
            return Ok(None);
        }
        let p = self
            .parent
            .ok_or(StitchError::NodeWithoutParent { node: i })?;
        if p as usize >= i {
            return Err(StitchError::ParentOutOfOrder { node: i, parent: p });
        }
        let f = self
            .frame
            .ok_or(StitchError::NodeWithoutFrame { node: i })?;
        Ok(Some((p, f)))
    }
}

/// A dumped CCT, labeled by the context it is annotated with (§7.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DumpCct {
    /// Index into [`StageDump::contexts`].
    pub ctx: u32,
    /// Nodes; index 0 is the root, parents precede children.
    pub nodes: Vec<DumpNode>,
}

/// Crosstalk aggregate rows of one stage.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DumpCrosstalkPair {
    /// Waiter context index.
    pub waiter: u32,
    /// Holder context index.
    pub holder: u32,
    /// Number of waits.
    pub count: u64,
    /// Total cycles waited.
    pub total_wait: u64,
}

/// Per-waiter crosstalk aggregate (all acquires).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DumpCrosstalkWaiter {
    /// Waiter context index.
    pub waiter: u32,
    /// Number of acquires.
    pub count: u64,
    /// Total cycles waited.
    pub total_wait: u64,
}

/// The complete serialized profile of one stage (process).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct StageDump {
    /// Process id.
    pub proc: u32,
    /// Human-readable stage name.
    pub stage_name: String,
    /// Interned frame names; indices are local to this dump. Shared
    /// with the deltas and accumulators they came through.
    pub frames: Vec<Arc<str>>,
    /// Interned contexts; indices are local to this dump.
    pub contexts: Vec<DumpContext>,
    /// One CCT per context that accumulated profile data.
    pub ccts: Vec<DumpCct>,
    /// `(raw synopsis, context index)` pairs this stage minted.
    pub synopses: Vec<(u64, u32)>,
    /// Crosstalk pair aggregates.
    pub crosstalk_pairs: Vec<DumpCrosstalkPair>,
    /// Crosstalk waiter aggregates.
    pub crosstalk_waiters: Vec<DumpCrosstalkWaiter>,
    /// Total piggyback bytes this stage sent.
    pub piggyback_bytes: u64,
    /// Messages sent with a piggyback.
    pub messages: u64,
}

/// Why a stage dump (or part of one) could not be used.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StitchError {
    /// A non-root CCT node has no parent index.
    NodeWithoutParent {
        /// Index of the offending node within its CCT.
        node: usize,
    },
    /// A non-root CCT node has no frame.
    NodeWithoutFrame {
        /// Index of the offending node within its CCT.
        node: usize,
    },
    /// A node's parent index does not precede the node.
    ParentOutOfOrder {
        /// Index of the offending node within its CCT.
        node: usize,
        /// The out-of-order parent index it names.
        parent: u32,
    },
    /// A CCT is labeled with a context index the dump does not contain.
    ContextOutOfRange {
        /// The out-of-range context index.
        ctx: u32,
    },
    /// A context atom names a frame index the dump does not contain.
    FrameOutOfRange {
        /// The out-of-range frame index.
        frame: u32,
    },
    /// The dump text is not well-formed JSON.
    Json {
        /// Byte offset the parser stopped at.
        offset: usize,
        /// What went wrong.
        msg: String,
    },
    /// The JSON is well-formed but does not describe a stage dump.
    Schema(String),
}

impl fmt::Display for StitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StitchError::NodeWithoutParent { node } => {
                write!(f, "cct node {node} is non-root but has no parent")
            }
            StitchError::NodeWithoutFrame { node } => {
                write!(f, "cct node {node} is non-root but has no frame")
            }
            StitchError::ParentOutOfOrder { node, parent } => {
                write!(
                    f,
                    "cct node {node} names parent {parent}, which does not precede it"
                )
            }
            StitchError::ContextOutOfRange { ctx } => {
                write!(f, "cct labeled with unknown context index {ctx}")
            }
            StitchError::FrameOutOfRange { frame } => {
                write!(f, "context atom names unknown frame index {frame}")
            }
            StitchError::Json { offset, msg } => {
                write!(f, "malformed JSON at byte {offset}: {msg}")
            }
            StitchError::Schema(msg) => write!(f, "dump schema violation: {msg}"),
        }
    }
}

impl std::error::Error for StitchError {}

impl StageDump {
    /// Reconstructs a [`Cct`] from a dumped tree.
    ///
    /// Fails (instead of panicking — dumps are untrusted input) when a
    /// non-root node lacks a parent or frame, or when a parent does not
    /// precede its children.
    pub fn rebuild_cct(&self, d: &DumpCct) -> Result<Cct, StitchError> {
        let mut cct = Cct::new();
        fold_dump_nodes(
            &mut cct,
            &mut Vec::with_capacity(d.nodes.len()),
            &d.nodes,
            FrameId,
        )?;
        Ok(cct)
    }

    /// Checks the dump's internal indices: every CCT node links to a
    /// preceding parent, every CCT label and every context atom
    /// resolves.
    pub fn validate(&self) -> Result<(), StitchError> {
        for c in &self.ccts {
            if c.ctx as usize >= self.contexts.len() {
                return Err(StitchError::ContextOutOfRange { ctx: c.ctx });
            }
            for (i, n) in c.nodes.iter().enumerate() {
                n.link(i)?;
            }
        }
        self.contexts
            .iter()
            .try_for_each(|c| c.check_frames(self.frames.len()))
    }

    /// Returns a copy of this dump re-homed onto other process ids.
    ///
    /// `map` translates an old process id to a new one; it is applied
    /// to the dump's own `proc`, to the process-id bits of every synopsis
    /// this stage minted, and to every synopsis inside `Remote` context
    /// atoms, keeping the dump internally consistent. Ids the map
    /// returns `None` for are left unchanged (a chain may reference a
    /// process outside the remapped group).
    ///
    /// This is how [`crate::pipeline::replicate_fleet`] turns one
    /// profiled tier group into a fleet: each replica gets a disjoint
    /// process-id range, so the replicas' synopses never collide.
    pub fn with_remapped_proc(&self, map: &dyn Fn(u32) -> Option<u32>) -> StageDump {
        let mut d = self.clone();
        if let Some(p) = map(d.proc) {
            d.proc = p;
        }
        for (raw, _) in &mut d.synopses {
            *raw = remap_synopsis(*raw, map);
        }
        for c in &mut d.contexts {
            *c = c.with_remapped_proc(map);
        }
        d
    }

    /// Renders a dumped context as a human-readable string. Unknown
    /// indices render as placeholders rather than panicking.
    pub fn ctx_string(&self, ctx: u32) -> String {
        ctx_string_of(&self.frames, &self.contexts, ctx)
    }

    /// [`StageDump::ctx_string`] writing into any [`Sink`].
    pub fn ctx_string_into<S: Sink + ?Sized>(&self, out: &mut S, ctx: u32) {
        ctx_string_into(out, &self.frames, &self.contexts, ctx);
    }
}

/// [`StageDump::ctx_string`] over borrowed tables, so callers holding
/// frame/context slices (e.g. the streaming collector's accumulators)
/// can render labels without assembling a throwaway dump.
pub fn ctx_string_of<F: AsRef<str>>(frames: &[F], contexts: &[DumpContext], ctx: u32) -> String {
    let mut out = String::new();
    ctx_string_into(&mut out, frames, contexts, ctx);
    out
}

/// The label writer behind [`ctx_string_of`]: atoms joined by `" -> "`,
/// a path as `[a>b]`, a received chain as `remote(s1:0#s2:5)`. It
/// allocates nothing of its own.
pub fn ctx_string_into<S: Sink + ?Sized, F: AsRef<str>>(
    out: &mut S,
    frames: &[F],
    contexts: &[DumpContext],
    ctx: u32,
) {
    let Some(c) = contexts.get(ctx as usize) else {
        out.put("<ctx ");
        push_u32(out, ctx);
        out.put("?>");
        return;
    };
    if c.atoms.is_empty() {
        out.put("<root>");
        return;
    }
    let frame = |out: &mut S, f: u32| match frames.get(f as usize) {
        Some(name) => out.put(name.as_ref()),
        None => {
            out.put("<frame ");
            push_u32(out, f);
            out.put("?>");
        }
    };
    for (i, a) in c.atoms.iter().enumerate() {
        if i > 0 {
            out.put(" -> ");
        }
        match a {
            DumpAtom::Frame(f) => frame(out, *f),
            DumpAtom::Path(p) => {
                out.put_char('[');
                for (j, &f) in p.iter().enumerate() {
                    if j > 0 {
                        out.put_char('>');
                    }
                    frame(out, f);
                }
                out.put_char(']');
            }
            DumpAtom::Remote(chain) => {
                out.put("remote(");
                for (j, &raw) in chain.iter().enumerate() {
                    if j > 0 {
                        out.put_char('#');
                    }
                    Synopsis(raw).push_into(out);
                }
                out.put_char(')');
            }
        }
    }
}

/// Converts a live [`TransactionContext`] into dump form.
pub fn dump_context(value: &TransactionContext) -> DumpContext {
    DumpContext {
        atoms: value
            .atoms()
            .iter()
            .map(|a| match a {
                ContextAtom::Frame(f) => DumpAtom::Frame(f.0),
                ContextAtom::Path(p) => DumpAtom::Path(p.iter().map(|f| f.0).collect()),
                ContextAtom::Remote(c) => DumpAtom::Remote(c.0.iter().map(|s| s.0).collect()),
            })
            .collect(),
    }
}

/// Appends dumped CCT nodes to `cct`, extending `map` (dump node index
/// → node id in `cct`) and passing each frame index through `frame`;
/// returns the exclusive cycles added. The first node of a tree (empty
/// `map`) is the root; every later one must name a frame and a parent
/// that precedes it — dumps are untrusted, so a violation is an error,
/// not a panic, and leaves the nodes before it folded.
pub fn fold_dump_nodes(
    cct: &mut Cct,
    map: &mut Vec<CctNodeId>,
    nodes: &[DumpNode],
    frame: impl Fn(u32) -> FrameId,
) -> Result<u64, StitchError> {
    let mut cycles = 0u64;
    for n in nodes {
        let id = match n.link(map.len())? {
            None => CctNodeId::ROOT,
            Some((p, f)) => cct.child(map[p as usize], frame(f)),
        };
        cct.record_at(
            id,
            crate::cct::Metrics {
                samples: n.samples,
                cycles: n.cycles,
                calls: n.calls,
            },
        );
        cycles += n.cycles;
        map.push(id);
    }
    Ok(cycles)
}

/// An origin walk that stopped at a remote context whose chain head no
/// indexed stage minted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UnresolvedHead {
    /// The `(stage, ctx)` the walk had reached.
    pub at: (usize, u32),
    /// The raw synopsis that did not resolve.
    pub missing: u64,
}

/// Follows remote chains from `start` back to the originating stage's
/// context (the transaction's entry point): a context whose first atom
/// is `Remote(chain)` originated at the stage that minted the *first*
/// synopsis of the chain.
///
/// `context` looks a `(stage, ctx)` up and `resolve` maps a raw
/// synopsis to the `(stage, ctx)` that minted it. What an unresolvable
/// head means is the caller's call: against a complete index the walk
/// settles at [`UnresolvedHead::at`]; a streaming index parks on
/// [`UnresolvedHead::missing`] until a later epoch mints it.
pub fn walk_origin<'a>(
    context: impl Fn((usize, u32)) -> Option<&'a DumpContext>,
    resolve: impl Fn(u64) -> Option<(usize, u32)>,
    start: (usize, u32),
) -> Result<(usize, u32), UnresolvedHead> {
    let mut cur = start;
    // Chains are acyclic in well-formed profiles; the guard bounds
    // damage from a malformed dump.
    for _ in 0..64 {
        let head = context(cur)
            .and_then(DumpContext::remote_chain)
            .and_then(|chain| chain.first());
        let Some(&head) = head else {
            return Ok(cur);
        };
        let Some(next) = resolve(head) else {
            return Err(UnresolvedHead {
                at: cur,
                missing: head,
            });
        };
        if next == cur {
            return Ok(cur);
        }
        cur = next;
    }
    Ok(cur)
}

/// The global frame table of a set of dumps: the sorted union of every
/// stage's frame names, plus each stage's local→global index map.
pub fn global_frames(stages: &[StageDump]) -> (Vec<String>, Vec<Vec<u32>>) {
    // One hash probe per name hands out first-seen ids; a fleet repeats
    // each name once per replica, so only the few distinct names are
    // sorted, and the maps are renumbered by rank afterwards.
    let mut seen: FnvHashMap<&str, u32> = FnvHashMap::default();
    let mut remap: Vec<Vec<u32>> = Vec::with_capacity(stages.len());
    for d in stages {
        let mut local = Vec::with_capacity(d.frames.len());
        for f in &d.frames {
            let next = seen.len() as u32;
            local.push(*seen.entry(f).or_insert(next));
        }
        remap.push(local);
    }
    let mut names: Vec<(&str, u32)> = seen.into_iter().collect();
    names.sort_unstable();
    let mut rank = vec![0u32; names.len()];
    for (r, &(_, id)) in names.iter().enumerate() {
        rank[id as usize] = r as u32;
    }
    for g in remap.iter_mut().flatten() {
        *g = rank[*g as usize];
    }
    let frames = names.into_iter().map(|(n, _)| n.to_owned()).collect();
    (frames, remap)
}

/// The global-dictionary value of an origin: its dumped context with
/// stage-local frame indices remapped onto the [`global_frames`] table.
pub fn global_value(
    stages: &[StageDump],
    remap: &[Vec<u32>],
    origin: (usize, u32),
) -> TransactionContext {
    let Some(d) = stages.get(origin.0) else {
        return TransactionContext::root();
    };
    let Some(c) = d.contexts.get(origin.1 as usize) else {
        return TransactionContext::root();
    };
    let rm = &remap[origin.0];
    let gf = |f: &u32| FrameId(rm.get(*f as usize).copied().unwrap_or(u32::MAX));
    TransactionContext(
        c.atoms
            .iter()
            .map(|a| match a {
                DumpAtom::Frame(f) => ContextAtom::Frame(gf(f)),
                DumpAtom::Path(p) => {
                    ContextAtom::Path(p.iter().map(&gf).collect::<Vec<_>>().into())
                }
                DumpAtom::Remote(chain) => {
                    ContextAtom::Remote(SynChain(chain.iter().map(|&s| Synopsis(s)).collect()))
                }
            })
            .collect(),
    )
}

/// A request edge in the stitched transactional profile: the send point
/// in one stage that a remote context in another stage came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RequestEdge {
    /// Index of the sending stage in the stitched set.
    pub from_stage: usize,
    /// Context index (in the sending stage) at the send point.
    pub from_ctx: u32,
    /// Index of the receiving stage.
    pub to_stage: usize,
    /// The receiving stage's remote context index.
    pub to_ctx: u32,
}

/// A remote context whose immediate sender could not be identified —
/// the stage that minted the chain's last synopsis contributed no
/// (valid) dump. The transaction is still profiled at the receiving
/// stage; only the cross-stage attribution is missing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UnresolvedEdge {
    /// Index of the receiving stage.
    pub to_stage: usize,
    /// The receiving stage's remote context index.
    pub to_ctx: u32,
    /// The raw synopsis that failed to resolve.
    pub missing: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cct::Metrics;
    use crate::frame::FrameId;

    fn dump_with_ctx(proc: u32, atoms: Vec<DumpAtom>, synopses: Vec<(u64, u32)>) -> StageDump {
        StageDump {
            proc,
            stage_name: format!("stage{proc}"),
            frames: vec!["main".into(), "foo".into(), "send".into()],
            contexts: vec![
                DumpContext::default(),
                DumpContext {
                    atoms: atoms.into(),
                },
            ],
            ccts: Vec::new(),
            synopses,
            ..Default::default()
        }
    }

    #[test]
    fn cct_rebuild_roundtrip() {
        let mut cct = Cct::new();
        cct.record(
            &[FrameId(0), FrameId(1)],
            Metrics {
                samples: 3,
                cycles: 30,
                calls: 1,
            },
        );
        cct.record(
            &[FrameId(2)],
            Metrics {
                samples: 1,
                cycles: 5,
                calls: 2,
            },
        );
        // Dump by hand in creation order (root first).
        let mut nodes = Vec::new();
        for id in cct.node_ids() {
            nodes.push(DumpNode {
                frame: cct.frame(id).map(|f| f.0),
                parent: cct.parent(id).map(|p| p.0),
                samples: cct.metrics(id).samples,
                cycles: cct.metrics(id).cycles,
                calls: cct.metrics(id).calls,
            });
        }
        let d = StageDump {
            frames: vec!["a".into(), "b".into(), "c".into()],
            ..Default::default()
        };
        let mut rebuilt = d.rebuild_cct(&DumpCct { ctx: 0, nodes }).unwrap();
        assert_eq!(rebuilt.total().cycles, 35);
        assert_eq!(rebuilt.total().samples, 4);
        let n = rebuilt.path_node(&[FrameId(0), FrameId(1)]);
        assert_eq!(rebuilt.metrics(n).cycles, 30);
    }

    #[test]
    fn malformed_nodes_are_errors_not_panics() {
        let d = StageDump::default();
        let orphan = DumpCct {
            ctx: 0,
            nodes: vec![
                DumpNode {
                    frame: None,
                    parent: None,
                    samples: 0,
                    cycles: 0,
                    calls: 0,
                },
                DumpNode {
                    frame: Some(1),
                    parent: None,
                    samples: 1,
                    cycles: 1,
                    calls: 0,
                },
            ],
        };
        assert_eq!(
            d.rebuild_cct(&orphan).err(),
            Some(StitchError::NodeWithoutParent { node: 1 })
        );
        let forward = DumpCct {
            ctx: 0,
            nodes: vec![
                DumpNode {
                    frame: None,
                    parent: None,
                    samples: 0,
                    cycles: 0,
                    calls: 0,
                },
                DumpNode {
                    frame: Some(1),
                    parent: Some(5),
                    samples: 1,
                    cycles: 1,
                    calls: 0,
                },
            ],
        };
        assert_eq!(
            d.rebuild_cct(&forward).err(),
            Some(StitchError::ParentOutOfOrder { node: 1, parent: 5 })
        );
    }

    #[test]
    fn origin_follows_remote_chains() {
        // Stage 0 mints synopsis 100 for its local ctx 1; stage 1's ctx
        // 1 is remote([100]) and mints 200; stage 2's ctx 1 is
        // remote([100, 200]).
        let stages = [
            dump_with_ctx(0, vec![DumpAtom::Path(vec![0, 1])], vec![(100, 1)]),
            dump_with_ctx(1, vec![DumpAtom::Remote(vec![100])], vec![(200, 1)]),
            dump_with_ctx(2, vec![DumpAtom::Remote(vec![100, 200])], vec![]),
        ];
        let context = |(s, c): (usize, u32)| stages.get(s)?.contexts.get(c as usize);
        let minted = |raw: u64| match raw {
            100 => Some((0, 1)),
            200 => Some((1, 1)),
            _ => None,
        };
        assert_eq!(walk_origin(context, minted, (2, 1)), Ok((0, 1)));
        assert_eq!(walk_origin(context, minted, (1, 1)), Ok((0, 1)));
        assert_eq!(walk_origin(context, minted, (0, 1)), Ok((0, 1)));
        // Stage 1's dump lost: the walk from stage 2 still finds the
        // entry stage via the chain head, which stage 0 did mint.
        let without_mid = |raw: u64| minted(raw).filter(|&(s, _)| s != 1);
        assert_eq!(walk_origin(context, without_mid, (2, 1)), Ok((0, 1)));
        // Stage 0's lost: the walk stops where the head went missing.
        let without_front = |raw: u64| minted(raw).filter(|&(s, _)| s != 0);
        assert_eq!(
            walk_origin(context, without_front, (2, 1)),
            Err(UnresolvedHead {
                at: (2, 1),
                missing: 100
            })
        );
    }

    #[test]
    fn remap_proc_copies_only_the_contexts_it_rewrites() {
        let chain = vec![0x0200_0005, 0x0100_0002];
        let a = dump_with_ctx(1, vec![DumpAtom::Remote(chain.clone())], vec![]);
        let shared = |x: &StageDump, y: &StageDump| {
            x.contexts
                .iter()
                .zip(&y.contexts)
                .map(|(x, y)| Arc::ptr_eq(&x.atoms, &y.atoms))
                .collect::<Vec<_>>()
        };
        let twin = a.clone();
        let moved = twin.with_remapped_proc(&|p| if p == 1 { Some(4) } else { None });
        assert_eq!(shared(&moved, &a), [true, false]);
        let want = [0x0200_0005, 0x0400_0002];
        assert_eq!(moved.contexts[1].remote_chain(), Some(&want[..]));
        // The clone it was made from, and the dump that clone shares
        // its atoms with, still hold the old chain.
        assert_eq!(shared(&twin, &a), [true, true]);
        assert_eq!(twin.contexts[1].remote_chain(), Some(&chain[..]));
        assert_eq!(a.contexts[1].remote_chain(), Some(&chain[..]));
        // A map that moves nothing copies nothing.
        assert_eq!(shared(&a.with_remapped_proc(&|_| None), &a), [true, true]);
    }

    #[test]
    fn ctx_string_is_readable() {
        let d = dump_with_ctx(
            0,
            vec![
                DumpAtom::Frame(1),
                DumpAtom::Path(vec![0, 2]),
                DumpAtom::Remote(vec![0x0100_0005]),
            ],
            vec![],
        );
        let s = d.ctx_string(1);
        assert_eq!(s, "foo -> [main>send] -> remote(s1:5)");
        assert_eq!(d.ctx_string(0), "<root>");
        // Out-of-range indices render placeholders, never panic.
        assert_eq!(d.ctx_string(99), "<ctx 99?>");
        let bad = dump_with_ctx(0, vec![DumpAtom::Frame(77)], vec![]);
        assert!(bad.ctx_string(1).contains("<frame 77?>"));
    }
}
