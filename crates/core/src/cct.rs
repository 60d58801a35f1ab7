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
use crate::hash::FnvHashMap;

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

/// Sentinel for "no node": the root's parent.
const NO_NODE: u32 = u32::MAX;

/// A CCT node: its frame, its parent and its metrics. Lookup by frame
/// goes through the owning [`Cct`]'s one `children` map, and
/// [`Cct::walk_sorted`] finds a node's children through the parent
/// links, so a node holds no child links and the whole tree is one
/// contiguous arena. DESIGN.md §11 "CCT fold" has the measurements
/// behind holding no child slots on the node.
#[derive(Clone, Debug)]
struct Node {
    frame: Option<FrameId>,
    parent: u32,
    metrics: Metrics,
}

/// The `children` key of `frame` under node `parent`: the parent in
/// the high half, the frame xor the parent in the low. `FnvHasher`
/// takes a `u64` in one multiply, so only the low half reaches the
/// bucket index; with the parent folded in, one frame under many
/// parents spreads instead of piling onto one probe sequence. The key
/// stays one-to-one: the high half gives back the parent, and with it
/// the frame.
fn child_key(parent: u32, frame: FrameId) -> u64 {
    (u64::from(parent) << 32) | u64::from(frame.0 ^ parent)
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
    /// `child_key(parent, frame) → child`, one entry per non-root
    /// node; entries are never removed.
    children: FnvHashMap<u64, u32>,
}

impl Default for Cct {
    fn default() -> Self {
        Self::new()
    }
}

/// The buffers of [`Cct::walk_sorted`], kept by a caller that walks
/// many trees: the pre-order stack, every node's children (grouped by
/// parent, each group sorted by frame), where each group starts, and
/// the inclusive metrics of the tree being walked.
#[derive(Debug, Default)]
pub struct SortedWalk {
    stack: Vec<(CctNodeId, usize)>,
    kids: Vec<(FrameId, u32)>,
    start: Vec<u32>,
    inc: Vec<Metrics>,
}

impl Cct {
    /// Creates a CCT holding only the (frameless) root.
    pub fn new() -> Self {
        Cct {
            nodes: vec![Node {
                frame: None,
                parent: NO_NODE,
                metrics: Metrics::default(),
            }],
            children: FnvHashMap::default(),
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
        let next = u32::try_from(self.nodes.len()).expect("more than u32::MAX CCT nodes");
        let id = *self
            .children
            .entry(child_key(node.0, frame))
            .or_insert(next);
        if id == next {
            assert!(id != NO_NODE, "CCT node id space exhausted");
            self.nodes.push(Node {
                frame: Some(frame),
                parent: node.0,
                metrics: Metrics::default(),
            });
        }
        CctNodeId(id)
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
        let mut inc = Vec::new();
        self.inclusive_into(&mut inc);
        inc
    }

    /// [`Cct::inclusive_all`] into a buffer the caller reuses.
    fn inclusive_into(&self, inc: &mut Vec<Metrics>) {
        inc.clear();
        inc.extend(self.nodes.iter().map(|n| n.metrics));
        for i in (1..inc.len()).rev() {
            let m = inc[i];
            inc[self.nodes[i].parent as usize].add(m);
        }
    }

    /// Visits every node in pre-order, children by frame id, with its
    /// depth below the root (the root is depth 0) and its inclusive
    /// metrics. The walk keeps an explicit stack, so a tree as deep as
    /// its node count never touches the call stack, and every buffer it
    /// needs lives in `walk`: a renderer walking many trees through one
    /// [`SortedWalk`] allocates only while the largest tree so far
    /// grows them.
    pub fn walk_sorted(
        &self,
        walk: &mut SortedWalk,
        mut visit: impl FnMut(CctNodeId, usize, Metrics),
    ) {
        let SortedWalk {
            stack,
            kids,
            start,
            inc,
        } = walk;
        self.inclusive_into(inc);
        // Group the children by parent through the parent links: count
        // each parent's children two slots ahead, prefix-sum, then
        // place each child by bumping its parent's cursor one slot
        // ahead, which leaves node `p`'s children at
        // `kids[start[p]..start[p + 1]]`.
        let n = self.nodes.len();
        start.clear();
        start.resize(n + 2, 0);
        for nd in &self.nodes[1..] {
            start[nd.parent as usize + 2] += 1;
        }
        for i in 2..start.len() {
            start[i] += start[i - 1];
        }
        kids.clear();
        kids.resize(n - 1, (FrameId(0), 0));
        for (id, nd) in self.nodes.iter().enumerate().skip(1) {
            let at = &mut start[nd.parent as usize + 1];
            kids[*at as usize] = (nd.frame.expect("non-root node has a frame"), id as u32);
            *at += 1;
        }
        stack.clear();
        stack.push((CctNodeId::ROOT, 0));
        while let Some((node, depth)) = stack.pop() {
            visit(node, depth, inc[node.0 as usize]);
            let (lo, hi) = (start[node.0 as usize], start[node.0 as usize + 1]);
            let group = &mut kids[lo as usize..hi as usize];
            // A node has one child per frame, so the keys are distinct
            // and an unstable sort gives the one order.
            group.sort_unstable_by_key(|&(f, _)| f);
            stack.extend(group.iter().rev().map(|&(_, c)| (CctNodeId(c), depth + 1)));
        }
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
    fn sorted_walk_is_preorder_by_frame() {
        let mut cct = Cct::new();
        for f in [5u32, 1, 3, 2, 4] {
            let c = cct.child(CctNodeId::ROOT, fid(f));
            cct.record_at(
                c,
                Metrics {
                    samples: 1,
                    cycles: u64::from(f),
                    calls: 0,
                },
            );
        }
        let one = cct.child(CctNodeId::ROOT, fid(1));
        let deep = cct.child(one, fid(9));
        cct.record_at(
            deep,
            Metrics {
                samples: 2,
                cycles: 7,
                calls: 0,
            },
        );
        let mut seen = Vec::new();
        let mut walk = SortedWalk::default();
        for _ in 0..2 {
            seen.clear();
            cct.walk_sorted(&mut walk, |n, depth, inc| {
                seen.push((cct.frame(n).map(|f| f.0), depth, inc.cycles));
            });
        }
        assert_eq!(
            seen,
            vec![
                (None, 0, 22),
                (Some(1), 1, 8),
                (Some(9), 2, 7),
                (Some(2), 1, 2),
                (Some(3), 1, 3),
                (Some(4), 1, 4),
                (Some(5), 1, 5),
            ]
        );
    }

    #[test]
    fn one_frame_under_many_parents_spreads() {
        // Only a key's low half reaches the bucket index, so it must
        // differ between parents for the same frame.
        let lows: std::collections::HashSet<u32> =
            (0..1000).map(|p| child_key(p, fid(3)) as u32).collect();
        assert_eq!(lows.len(), 1000);
    }

    #[test]
    fn empty_tree_reports_empty() {
        let cct = Cct::new();
        assert!(cct.is_empty());
        assert_eq!(cct.total(), Metrics::default());
        assert_eq!(cct.path_of(CctNodeId::ROOT), Vec::<FrameId>::new());
    }
}
