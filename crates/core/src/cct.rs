//! Calling Context Trees (§7.1).
//!
//! Whodunit's call-path profiler core maintains one Calling Context Tree
//! (CCT, Ammons–Ball–Larus) per transaction context. Each node names a
//! procedure frame; the path from the root to a node is a call path.
//! Profile samples are accumulated at the node whose root-path equals
//! the sampled call stack.
//!
//! Metrics are *exclusive* per node; inclusive values are computed on
//! demand by summing subtrees.

use crate::frame::FrameId;

/// Index of a node within one [`Cct`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct CctNodeId(pub u32);

impl CctNodeId {
    /// The root node of every CCT.
    pub const ROOT: CctNodeId = CctNodeId(0);
}

/// Exclusive profile metrics accumulated at one CCT node.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Metrics {
    /// Statistical profile samples attributed here.
    pub samples: u64,
    /// Exact CPU cycles attributed here (ground truth the simulator
    /// knows; real csprof only has samples).
    pub cycles: u64,
    /// Procedure invocations counted here (used by the gprof baseline).
    pub calls: u64,
}

impl Metrics {
    /// Component-wise sum.
    pub fn add(&mut self, other: Metrics) {
        self.samples += other.samples;
        self.cycles += other.cycles;
        self.calls += other.calls;
    }
}

/// Sentinel for "no node" in the intra-arena links below.
const NO_NODE: u32 = u32::MAX;

/// Children a node can hold inline before spilling to the CCT's flat
/// lookup table. Most CCT nodes have 0–2 children (call trees are
/// deep, not bushy), so the common case needs no table probe at all.
const INLINE_CHILDREN: usize = 2;

/// One inline child entry: the child's frame and its node index.
#[derive(Clone, Copy, Debug, Default)]
struct InlineChild {
    frame: u32,
    child: u32,
}

/// A CCT node. Children are reachable two ways: the
/// `first_child`/`next_sibling` chain enumerates them (newest first),
/// and lookup-by-frame goes through the inline slots, falling back to
/// the owning [`Cct`]'s spill table once the inline slots are full.
/// Compared to the previous per-node `HashMap<FrameId, CctNodeId>`,
/// this removes a heap allocation per interior node and keeps the
/// whole tree in one contiguous arena.
#[derive(Clone, Debug)]
struct Node {
    frame: Option<FrameId>,
    parent: u32,
    first_child: u32,
    next_sibling: u32,
    inline: [InlineChild; INLINE_CHILDREN],
    inline_len: u8,
    metrics: Metrics,
}

impl Node {
    fn new(frame: Option<FrameId>, parent: u32) -> Self {
        Node {
            frame,
            parent,
            first_child: NO_NODE,
            next_sibling: NO_NODE,
            inline: [InlineChild::default(); INLINE_CHILDREN],
            inline_len: 0,
            metrics: Metrics::default(),
        }
    }
}

/// One slot of a [`SpillTable`]: the packed `(parent, frame)` key and
/// the child node index biased by one (0 = empty slot).
#[derive(Clone, Copy, Debug, Default)]
struct SpillSlot {
    key: u64,
    child_p1: u32,
}

/// The per-CCT flat child table: an open-addressed FNV map from
/// `(parent node, frame) → child node` holding only the overflow
/// children of bushy nodes. One table per tree (not per node), probed
/// with linear scanning; entries are never removed.
#[derive(Clone, Debug, Default)]
struct SpillTable {
    slots: Vec<SpillSlot>,
    len: usize,
}

fn spill_key(parent: u32, frame: FrameId) -> u64 {
    ((parent as u64) << 32) | frame.0 as u64
}

fn spill_hash(key: u64) -> u64 {
    let mut h = crate::hash::Fnv64::new();
    h.write_u64(key);
    h.finish()
}

impl SpillTable {
    fn get(&self, key: u64) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (spill_hash(key) as usize) & mask;
        loop {
            let s = self.slots[i];
            if s.child_p1 == 0 {
                return None;
            }
            if s.key == key {
                return Some(s.child_p1 - 1);
            }
            i = (i + 1) & mask;
        }
    }

    /// Records `key → child`; the caller has established it is absent.
    fn insert(&mut self, key: u64, child: u32) {
        if self.slots.len() * 7 <= (self.len + 1) * 8 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (spill_hash(key) as usize) & mask;
        while self.slots[i].child_p1 != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = SpillSlot {
            key,
            child_p1: child + 1,
        };
        self.len += 1;
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![SpillSlot::default(); cap]);
        let mask = cap - 1;
        for s in old {
            if s.child_p1 == 0 {
                continue;
            }
            let mut i = (spill_hash(s.key) as usize) & mask;
            while self.slots[i].child_p1 != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }
}

/// A Calling Context Tree with per-node exclusive metrics.
///
/// # Examples
///
/// ```
/// use whodunit_core::cct::{Cct, Metrics};
/// use whodunit_core::frame::FrameId;
///
/// let mut cct = Cct::new();
/// let path = [FrameId(0), FrameId(1)];
/// cct.record(&path, Metrics { samples: 3, cycles: 300, calls: 1 });
/// let node = cct.path_node(&path);
/// assert_eq!(cct.metrics(node).cycles, 300);
/// assert_eq!(cct.total().samples, 3);
/// ```
#[derive(Clone, Debug)]
pub struct Cct {
    nodes: Vec<Node>,
    spill: SpillTable,
}

impl Default for Cct {
    fn default() -> Self {
        Self::new()
    }
}

impl Cct {
    /// Creates a CCT holding only the (frameless) root.
    pub fn new() -> Self {
        Cct {
            nodes: vec![Node::new(None, NO_NODE)],
            spill: SpillTable::default(),
        }
    }

    /// Number of nodes including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The frame at `node` (`None` for the root).
    pub fn frame(&self, node: CctNodeId) -> Option<FrameId> {
        self.nodes[node.0 as usize].frame
    }

    /// The parent of `node` (`None` for the root).
    pub fn parent(&self, node: CctNodeId) -> Option<CctNodeId> {
        match self.nodes[node.0 as usize].parent {
            NO_NODE => None,
            p => Some(CctNodeId(p)),
        }
    }

    /// Exclusive metrics at `node`.
    pub fn metrics(&self, node: CctNodeId) -> Metrics {
        self.nodes[node.0 as usize].metrics
    }

    /// Child of `node` for `frame`, creating it if missing.
    pub fn child(&mut self, node: CctNodeId, frame: FrameId) -> CctNodeId {
        if let Some(c) = self.find_child(node, frame) {
            return c;
        }
        let id = u32::try_from(self.nodes.len()).expect("more than u32::MAX CCT nodes");
        assert!(id != NO_NODE, "CCT node id space exhausted");
        let mut n = Node::new(Some(frame), node.0);
        n.next_sibling = self.nodes[node.0 as usize].first_child;
        self.nodes.push(n);
        let parent = &mut self.nodes[node.0 as usize];
        parent.first_child = id;
        if (parent.inline_len as usize) < INLINE_CHILDREN {
            parent.inline[parent.inline_len as usize] = InlineChild {
                frame: frame.0,
                child: id,
            };
            parent.inline_len += 1;
        } else {
            self.spill.insert(spill_key(node.0, frame), id);
        }
        CctNodeId(id)
    }

    /// Child of `node` for `frame` without creating it.
    pub fn find_child(&self, node: CctNodeId, frame: FrameId) -> Option<CctNodeId> {
        let nd = &self.nodes[node.0 as usize];
        for s in &nd.inline[..nd.inline_len as usize] {
            if s.frame == frame.0 {
                return Some(CctNodeId(s.child));
            }
        }
        if (nd.inline_len as usize) < INLINE_CHILDREN {
            // The inline slots never filled, so nothing spilled either.
            return None;
        }
        self.spill.get(spill_key(node.0, frame)).map(CctNodeId)
    }

    /// Resolves (creating as needed) the node for a full call path.
    pub fn path_node(&mut self, path: &[FrameId]) -> CctNodeId {
        let mut n = CctNodeId::ROOT;
        for &f in path {
            n = self.child(n, f);
        }
        n
    }

    /// Records exclusive metrics at the node for `path`.
    pub fn record(&mut self, path: &[FrameId], m: Metrics) {
        let n = self.path_node(path);
        self.nodes[n.0 as usize].metrics.add(m);
    }

    /// Records exclusive metrics at an already resolved node.
    pub fn record_at(&mut self, node: CctNodeId, m: Metrics) {
        self.nodes[node.0 as usize].metrics.add(m);
    }

    /// The call path from the root to `node` (root excluded).
    pub fn path_of(&self, node: CctNodeId) -> Vec<FrameId> {
        let mut path = Vec::new();
        let mut cur = node.0;
        while cur != NO_NODE {
            if let Some(f) = self.nodes[cur as usize].frame {
                path.push(f);
            }
            cur = self.nodes[cur as usize].parent;
        }
        path.reverse();
        path
    }

    /// Total metrics in the whole tree. Every node descends from the
    /// root, so this is the root's [`Cct::inclusive_all`] entry without
    /// the fold: a sum over the arena.
    pub fn total(&self) -> Metrics {
        let mut total = Metrics::default();
        for n in &self.nodes {
            total.add(n.metrics);
        }
        total
    }

    /// Inclusive metrics (own plus all descendants') of every node,
    /// indexed by node id. A node is always created after its parent,
    /// so one reverse scan of the arena folds each finished subtree
    /// into its parent: O(nodes) for the whole tree.
    pub fn inclusive_all(&self) -> Vec<Metrics> {
        let mut inc: Vec<Metrics> = self.nodes.iter().map(|n| n.metrics).collect();
        for i in (1..inc.len()).rev() {
            let m = inc[i];
            inc[self.nodes[i].parent as usize].add(m);
        }
        inc
    }

    /// Visits every node in pre-order, children by frame id, with its
    /// depth below the root (the root is depth 0). The walk keeps an
    /// explicit stack, so a tree as deep as its node count never
    /// touches the call stack.
    pub fn visit_sorted(&self, mut visit: impl FnMut(CctNodeId, usize)) {
        let mut stack = vec![(CctNodeId::ROOT, 0)];
        while let Some((node, depth)) = stack.pop() {
            visit(node, depth);
            let children = self.children_sorted(node);
            stack.extend(children.into_iter().rev().map(|c| (c, depth + 1)));
        }
    }

    /// Children of `node`, sorted by frame id for deterministic output.
    pub fn children_sorted(&self, node: CctNodeId) -> Vec<CctNodeId> {
        let mut v: Vec<(FrameId, u32)> = Vec::new();
        let mut c = self.nodes[node.0 as usize].first_child;
        while c != NO_NODE {
            let nd = &self.nodes[c as usize];
            v.push((nd.frame.expect("non-root node has a frame"), c));
            c = nd.next_sibling;
        }
        v.sort_by_key(|&(f, _)| f);
        v.into_iter().map(|(_, c)| CctNodeId(c)).collect()
    }

    /// Iterates over every node id (root first, then creation order).
    pub fn node_ids(&self) -> impl Iterator<Item = CctNodeId> {
        (0..self.nodes.len() as u32).map(CctNodeId)
    }

    /// The `n` call paths with the largest exclusive sample counts,
    /// heaviest first (a profiler's "hot paths" view). Ties are broken
    /// by path order, so the result is a pure function of the tree.
    pub fn hot_paths(&self, n: usize) -> Vec<(Vec<FrameId>, Metrics)> {
        if n == 0 {
            return Vec::new();
        }
        let mut ranked: Vec<(u64, CctNodeId)> = self
            .node_ids()
            .filter(|&id| self.nodes[id.0 as usize].metrics.samples > 0)
            .map(|id| (self.nodes[id.0 as usize].metrics.samples, id))
            .collect();
        // Select on sample counts alone before materializing paths:
        // every node strictly above the n-th count is in the result
        // regardless of tie-break, and only ties at the boundary need
        // path order to settle — so paths (an O(depth) allocation per
        // node) are built for the few candidates, not the whole tree.
        // Live snapshots ask for the top path of the *hottest* origins
        // mid-ingest, where the full materialize-and-sort is the
        // dominant query cost.
        if ranked.len() > n {
            let (_, nth, _) = ranked.select_nth_unstable_by(n - 1, |a, b| b.0.cmp(&a.0));
            let floor = nth.0;
            ranked.retain(|&(s, _)| s >= floor);
        }
        let mut v: Vec<(Vec<FrameId>, Metrics)> = ranked
            .into_iter()
            .map(|(_, id)| (self.path_of(id), self.metrics(id)))
            .collect();
        v.sort_by(|a, b| b.1.samples.cmp(&a.1.samples).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(n: u32) -> FrameId {
        FrameId(n)
    }

    fn m(samples: u64, cycles: u64) -> Metrics {
        Metrics {
            samples,
            cycles,
            calls: 0,
        }
    }

    #[test]
    fn child_creation_is_idempotent() {
        let mut cct = Cct::new();
        let a = cct.child(CctNodeId::ROOT, fid(1));
        let b = cct.child(CctNodeId::ROOT, fid(1));
        assert_eq!(a, b);
        assert_eq!(cct.len(), 2);
        assert_eq!(cct.frame(a), Some(fid(1)));
        assert_eq!(cct.parent(a), Some(CctNodeId::ROOT));
    }

    #[test]
    fn record_and_path_roundtrip() {
        let mut cct = Cct::new();
        let path = [fid(1), fid(2), fid(3)];
        cct.record(&path, m(1, 100));
        let n = cct.path_node(&path);
        assert_eq!(cct.metrics(n).cycles, 100);
        assert_eq!(cct.path_of(n), path.to_vec());
    }

    #[test]
    fn inclusive_sums_subtree() {
        let mut cct = Cct::new();
        cct.record(&[fid(1)], m(0, 10));
        cct.record(&[fid(1), fid(2)], m(0, 20));
        cct.record(&[fid(1), fid(3)], m(0, 30));
        cct.record(&[fid(4)], m(0, 5));
        let n1 = cct.path_node(&[fid(1)]);
        assert_eq!(cct.inclusive_all()[n1.0 as usize].cycles, 60);
        assert_eq!(cct.total().cycles, 65);
        assert_eq!(cct.metrics(n1).cycles, 10);
    }

    #[test]
    fn hot_paths_rank_by_exclusive_samples() {
        let mut cct = Cct::new();
        cct.record(&[fid(1)], m(5, 0));
        cct.record(&[fid(1), fid(2)], m(20, 0));
        cct.record(&[fid(3)], m(10, 0));
        let hot = cct.hot_paths(2);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].0, vec![fid(1), fid(2)]);
        assert_eq!(hot[0].1.samples, 20);
        assert_eq!(hot[1].0, vec![fid(3)]);
    }

    #[test]
    fn children_sorted_is_deterministic() {
        let mut cct = Cct::new();
        for f in [5u32, 1, 3, 2, 4] {
            cct.child(CctNodeId::ROOT, fid(f));
        }
        let frames: Vec<_> = cct
            .children_sorted(CctNodeId::ROOT)
            .into_iter()
            .map(|n| cct.frame(n).unwrap().0)
            .collect();
        assert_eq!(frames, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_tree_reports_empty() {
        let cct = Cct::new();
        assert!(cct.is_empty());
        assert_eq!(cct.total(), Metrics::default());
        assert_eq!(cct.path_of(CctNodeId::ROOT), Vec::<FrameId>::new());
    }
}
