//! The collector's incremental read layer (the crate docs' stitching,
//! first-read merge and retention): everything only the snapshot and
//! the pending gauges read. It reads the stage accumulators, as
//! `&[StageAccumulator]`, and never writes them.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use whodunit_core::cct::{Cct, CctNodeId, Metrics};
use whodunit_core::crosstalk::{OriginKey, WaitStats};
use whodunit_core::delta::{DeltaError, StageAccumulator, StageDelta};
use whodunit_core::frame::FrameId;
use whodunit_core::hash::FnvHashMap;
use whodunit_core::stitch::{ctx_string_into, fold_dump_nodes, walk_origin, UnresolvedHead};
use whodunit_report::live::{Hotspot, LiveSnapshot, TierSlice, TopPath};

/// How many entries live queries return (top paths, hotspots).
const TOP_K: usize = 5;

/// The first [`TOP_K`] of `items` in the order `cmp`, which must be
/// total: then the result is the prefix of a full sort, whatever order
/// the items come in (hash iteration order included). One pass, holding
/// at most `TOP_K + 1` items: an item that does not beat the worst kept
/// one costs one comparison.
fn top_k<T>(items: impl IntoIterator<Item = T>, cmp: impl Fn(&T, &T) -> Ordering) -> Vec<T> {
    let mut top: Vec<T> = Vec::with_capacity(TOP_K + 1);
    for item in items {
        if top.len() == TOP_K && top.last().is_some_and(|worst| cmp(&item, worst).is_ge()) {
            continue;
        }
        let at = top.partition_point(|kept| cmp(kept, &item).is_le());
        top.insert(at, item);
        top.truncate(TOP_K);
    }
    top
}

/// One origin's cross-stage aggregate.
#[derive(Debug, Default)]
struct OriginAggregate {
    cct: Cct,
    tier_cycles: BTreeMap<usize, u64>,
    /// Sum of `tier_cycles`, kept beside it by every fold: the snapshot
    /// ranking key, read for every origin at every snapshot.
    total: u64,
    /// Hottest path (collector-local frame ids), memoized on first
    /// snapshot use and dropped by the next fold: periodic snapshots
    /// rank the same hot origins again and again, and walking a tree
    /// per ranked origin per snapshot would put an O(nodes) tax on
    /// every live query.
    hot_path: Option<Vec<u32>>,
}

impl OriginAggregate {
    /// Adds `cycles` folded from stage `si` to the tier row and the
    /// cached total.
    fn add_cycles(&mut self, si: usize, cycles: u64) {
        *self.tier_cycles.entry(si).or_insert(0) += cycles;
        self.total += cycles;
        debug_assert_eq!(self.total, self.tier_cycles.values().sum::<u64>());
    }
}

/// Per-stage read state, parallel to the stage accumulators.
#[derive(Clone, Debug, Default)]
struct LiveStage {
    /// Per context index: the resolved origin, once the walk settles.
    bindings: Vec<Option<OriginKey>>,
    /// Per context index, `Some` once a snapshot has folded the
    /// context's CCT mass: dump CCT node index → node id inside the
    /// origin's merged CCT.
    fold: Vec<Option<Vec<CctNodeId>>>,
    /// Stage-local frame index → collector-global frame id, kept in
    /// sync as deltas arrive so folds never rebuild the mapping.
    frame_map: Vec<u32>,
}

/// The incremental read layer. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct Live {
    stages: Vec<LiveStage>,
    /// Raw synopsis → `(stage, ctx)` that minted it. Insert-only.
    /// Probed on every origin-walk hop and context mint, and keyed —
    /// like the two pending tables — by values a frame chose, so on
    /// std's keyed hasher: FNV's one multiply keeps the process-id
    /// bits out of the bucket index, and a fleet's mints (the same few
    /// counters under a thousand process ids) probe one long cluster.
    syn_index: HashMap<u64, (usize, u32)>,
    /// Missing raw synopsis → walk start contexts parked on it.
    pending_walks: HashMap<u64, Vec<(usize, u32)>>,
    /// Missing raw synopsis → how many receiving contexts' request
    /// edges wait on it (the live `pending_edges` gauge).
    pending_edges: HashMap<u64, u64>,
    /// Crosstalk increments whose waiter or holder origin is not yet
    /// resolved: `(stage, waiter, holder, count, total_wait)`.
    deferred_xt: Vec<(usize, u32, u32, u64, u64)>,
    // Hash-indexed for the per-row hot lookups; the snapshot ranks it
    // with an explicit total order.
    xt_pairs: FnvHashMap<(OriginKey, OriginKey), WaitStats>,
    /// Every origin a snapshot has folded so far.
    origins: FnvHashMap<OriginKey, OriginAggregate>,
    /// Bound contexts with CCT mass that no snapshot has folded yet, in
    /// the order they qualified; the next snapshot folds them first.
    unfolded: Vec<(usize, u32)>,
    /// Memoized origin labels (see [`Live::origin_label`]).
    label_cache: FnvHashMap<OriginKey, String>,
    /// Collector-local frame intern table (union of stage frames in
    /// arrival order), naming the snapshot's hot paths. Names are
    /// shared with the stage accumulators.
    frames: Vec<Arc<str>>,
    frame_ids: FnvHashMap<Arc<str>, u32>,
}

impl Live {
    /// The read layer of a stream with `stages` stages.
    pub(crate) fn new(stages: usize) -> Live {
        Live {
            stages: vec![LiveStage::default(); stages],
            ..Live::default()
        }
    }

    /// Refuses `d` if it mints a synopsis another context already
    /// minted. The index is insert-only and batch resolves a duplicate
    /// mint last-insert-wins over the complete run, which no
    /// incremental index can reproduce: a raw value has one owner.
    pub(crate) fn check_mints(&self, d: &StageDelta) -> Result<(), DeltaError> {
        let stolen = |&(raw, ctx): &(u64, u32)| {
            self.syn_index
                .get(&raw)
                .is_some_and(|&owner| owner != (d.stage, ctx))
        };
        if d.new_synopses.iter().any(stolen) {
            return Err(DeltaError::Inconsistent {
                stage: d.stage,
                what: "synopsis already minted by another context",
            });
        }
        Ok(())
    }

    /// The incremental stitching work an applied delta unlocks; only
    /// `Collector::apply_checked` calls it, right
    /// after `accs[d.stage]` took `d`, so every node, context and mint
    /// in `d` has passed validation. `ctx_base` is the stage's context
    /// count before `d`.
    pub(crate) fn apply(&mut self, accs: &[StageAccumulator], d: &StageDelta, ctx_base: u32) {
        // The accumulator appended exactly these frames, so the stage's
        // frame map grows by their interned ids and folds index it
        // directly.
        for f in &d.new_frames {
            let id = self.intern_frame(f);
            self.stages[d.stage].frame_map.push(id);
        }
        debug_assert_eq!(
            self.stages[d.stage].frame_map.len(),
            accs[d.stage].frames.len()
        );
        // CCT increments fold now only into a context a snapshot has
        // folded. Any other bound context queues for the next snapshot
        // when it gets its first nodes (`bind` queues one that already
        // has some); an unbound context's mass waits for its walk.
        for c in &d.ccts {
            if self.stages[d.stage]
                .fold
                .get(c.ctx as usize)
                .is_some_and(Option::is_some)
            {
                self.fold(accs, d.stage, c.ctx, &c.grown);
            } else if c.nodes_before == 0 && self.binding_of(d.stage, c.ctx).is_some() {
                self.unfolded.push((d.stage, c.ctx));
            }
        }
        // Index new mints; each may unpark pending walks and edges.
        for &(raw, ctx) in &d.new_synopses {
            self.syn_index.insert(raw, (d.stage, ctx));
            if let Some(starts) = self.pending_walks.remove(&raw) {
                for s in starts {
                    self.try_walk(accs, s);
                }
            }
            self.pending_edges.remove(&raw);
        }
        // New contexts: a request edge whose sender is not minted yet
        // waits, then the origin walk.
        let ctx_total = accs[d.stage].context_count() as u32;
        self.stages[d.stage]
            .bindings
            .resize(ctx_total as usize, None);
        for ci in ctx_base..ctx_total {
            let sender = accs[d.stage].contexts[ci as usize]
                .remote_chain()
                .and_then(|chain| chain.last().copied());
            if let Some(last) = sender.filter(|raw| !self.syn_index.contains_key(raw)) {
                *self.pending_edges.entry(last).or_default() += 1;
            }
            self.try_walk(accs, (d.stage, ci));
        }
        // Crosstalk increments resolve through origin bindings; rows
        // whose origins are still pending park until they settle.
        for p in &d.pairs {
            self.deferred_xt
                .push((d.stage, p.waiter, p.holder, p.count, p.total_wait));
        }
    }

    fn intern_frame(&mut self, name: &Arc<str>) -> u32 {
        if let Some(&id) = self.frame_ids.get(name) {
            return id;
        }
        let id = self.frames.len() as u32;
        self.frames.push(Arc::clone(name));
        self.frame_ids.insert(Arc::clone(name), id);
        id
    }

    /// The incremental origin walk: the batch walk, except that an
    /// unresolvable chain head *parks* instead of settling (the batch
    /// answer depends on the complete index, so the walk resumes when
    /// the missing synopsis arrives; one still parked at finalize is
    /// settled by `analyze`).
    fn try_walk(&mut self, accs: &[StageAccumulator], start: (usize, u32)) {
        if self.binding_of(start.0, start.1).is_some() {
            return;
        }
        match self.origin_walk(accs, start) {
            Ok(origin) => self.bind(accs, start, origin),
            Err(u) => self.pending_walks.entry(u.missing).or_default().push(start),
        }
    }

    /// [`walk_origin`] over the accumulated contexts and the current
    /// minted-synopsis index.
    fn origin_walk(
        &self,
        accs: &[StageAccumulator],
        start: (usize, u32),
    ) -> Result<OriginKey, UnresolvedHead> {
        let context = |(s, c): (usize, u32)| accs.get(s)?.contexts.get(c as usize);
        walk_origin(context, |raw| self.syn_index.get(&raw).copied(), start)
    }

    /// Records a settled origin; a context that already has CCT mass
    /// queues for the next snapshot's fold.
    fn bind(&mut self, accs: &[StageAccumulator], start: (usize, u32), origin: OriginKey) {
        self.stages[start.0].bindings[start.1 as usize] = Some(origin);
        if accs[start.0].cct_nodes(start.1).is_some() {
            self.unfolded.push(start);
        }
    }

    /// Folds the bound context `(si, ctx)` into its origin's tree
    /// through the context's node map: `grown` onto nodes the map
    /// covers, then every accumulated node past the map. A context's
    /// first fold (a snapshot's catch-up, `grown` empty) starts the map
    /// and takes all its nodes; every later one is a delta just applied
    /// to the accumulator, whose growth rows name mapped nodes and
    /// whose new nodes are the ones past the map.
    fn fold(
        &mut self,
        accs: &[StageAccumulator],
        si: usize,
        ctx: u32,
        grown: &[(u32, u64, u64, u64)],
    ) {
        let origin = self
            .binding_of(si, ctx)
            .expect("only a bound context folds");
        let st = &mut self.stages[si];
        if st.fold.len() <= ctx as usize {
            st.fold.resize_with(ctx as usize + 1, || None);
        }
        let map = st.fold[ctx as usize].get_or_insert_with(Vec::new);
        let nodes = accs[si].cct_nodes(ctx).unwrap_or_default();
        let past = nodes.get(map.len()..).unwrap_or_default();
        let entry = self.origins.entry(origin).or_default();
        entry.hot_path = None;
        let mut cycles = 0u64;
        for &(i, samples, dc, calls) in grown {
            let grown = Metrics {
                samples,
                cycles: dc,
                calls,
            };
            entry.cct.record_at(map[i as usize], grown);
            cycles += dc;
        }
        let frame = |f: u32| FrameId(st.frame_map.get(f as usize).copied().unwrap_or(u32::MAX));
        cycles += fold_dump_nodes(&mut entry.cct, map, past, frame)
            .expect("apply validated every accumulated node");
        entry.add_cycles(si, cycles);
    }

    fn binding_of(&self, si: usize, ctx: u32) -> Option<OriginKey> {
        self.stages
            .get(si)
            .and_then(|s| s.bindings.get(ctx as usize))
            .copied()
            .flatten()
    }

    /// Replays deferred crosstalk rows whose origins have settled.
    pub(crate) fn retry_deferred_xt(&mut self) {
        let rows = std::mem::take(&mut self.deferred_xt);
        for row in rows {
            let (si, waiter, holder, count, total_wait) = row;
            match (self.binding_of(si, waiter), self.binding_of(si, holder)) {
                (Some(w), Some(h)) => {
                    let e = self.xt_pairs.entry((w, h)).or_default();
                    e.count += count;
                    e.total_wait += total_wait;
                }
                _ => self.deferred_xt.push(row),
            }
        }
    }

    pub(crate) fn pending_walk_count(&self) -> u64 {
        self.pending_walks.values().map(|v| v.len() as u64).sum()
    }

    pub(crate) fn pending_edge_count(&self) -> u64 {
        self.pending_edges.values().sum()
    }

    /// `stage:context` label for an origin, matching the batch
    /// report's `origin_label` rendering. An origin's label is fixed
    /// once its context is interned (the frame and context tables are
    /// append-only), so it is memoized: periodic snapshots re-label
    /// the same hot origins every time, and the context-chain walk is
    /// the expensive part.
    fn origin_label(&mut self, accs: &[StageAccumulator], origin: OriginKey) -> String {
        let label = self
            .label_cache
            .entry(origin)
            .or_insert_with(|| match accs.get(origin.0) {
                Some(acc) => {
                    let mut label = acc.stage_name.clone();
                    label.push(':');
                    ctx_string_into(&mut label, &acc.frames, &acc.contexts, origin.1);
                    label
                }
                None => format!("<stage {}?>:{}", origin.0, origin.1),
            });
        label.clone()
    }

    /// [`Collector::snapshot`](crate::Collector::snapshot)'s ranking,
    /// origin and pending fields; the collector fills in the rest.
    pub(crate) fn snapshot(&mut self, accs: &[StageAccumulator]) -> LiveSnapshot {
        // In the order they queued. A context queued twice (its CCT
        // arrived empty) has no node past its map on its second turn.
        let mut queued = std::mem::take(&mut self.unfolded);
        for (si, ctx) in queued.drain(..) {
            self.fold(accs, si, ctx, &[]);
        }
        self.unfolded = queued;
        // Cycles descending, then origin ascending.
        let ranked = top_k(self.origins.iter().map(|(&k, o)| (o.total, k)), |a, b| {
            (b.0, a.1).cmp(&(a.0, b.1))
        });

        let mut top_paths = Vec::new();
        let mut tiers = Vec::new();
        for &(cycles, k) in &ranked {
            let origin = self.origin_label(accs, k);
            let frame_name = |f: u32| {
                self.frames
                    .get(f as usize)
                    .map_or_else(|| format!("<frame {f}?>"), |n| n.to_string())
            };
            let o = self.origins.get_mut(&k).expect("ranked from the map");
            let hot = o.hot_path.get_or_insert_with(|| {
                let hottest = o.cct.hot_paths(1).into_iter().next();
                hottest.map_or_else(Vec::new, |(frames, _)| frames.iter().map(|f| f.0).collect())
            });
            top_paths.push(TopPath {
                origin: origin.clone(),
                cycles,
                samples: o.cct.total().samples,
                path: hot.iter().map(|&f| frame_name(f)).collect(),
            });
            tiers.push(TierSlice {
                origin,
                stages: o
                    .tier_cycles
                    .iter()
                    .map(|(&si, &cy)| {
                        let name = accs
                            .get(si)
                            .map(|acc| acc.stage_name.clone())
                            .unwrap_or_else(|| format!("<stage {si}?>"));
                        (name, cy)
                    })
                    .collect(),
            });
        }

        // Wait descending, then pair ascending.
        let hotspots = top_k(self.xt_pairs.iter().map(|(&k, &s)| (k, s)), |a, b| {
            (b.1.total_wait, a.0).cmp(&(a.1.total_wait, b.0))
        })
        .into_iter()
        .map(|((w, h), s)| Hotspot {
            waiter: self.origin_label(accs, w),
            holder: self.origin_label(accs, h),
            count: s.count,
            total_wait: s.total_wait,
        })
        .collect();

        LiveSnapshot {
            origins: self.origins.len() as u64,
            pending_walks: self.pending_walk_count(),
            pending_edges: self.pending_edge_count(),
            top_paths,
            tiers,
            hotspots,
            ..LiveSnapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Collector, CollectorConfig};
    use whodunit_core::delta::{EpochBatch, StreamHeader};
    use whodunit_core::pipeline::PipelineConfig;
    use whodunit_core::stitch::StageDump;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// `top_k` is the first `TOP_K` of a full sort under the same
        /// total order: over inputs with tied ranks and repeated items,
        /// shorter than `TOP_K` or empty.
        #[test]
        fn top_k_is_the_prefix_of_a_full_sort(
            items in proptest::collection::vec((0u64..4, 0u32..8), 0..24)
        ) {
            let cmp = |a: &(u64, u32), b: &(u64, u32)| (b.0, a.1).cmp(&(a.0, b.1));
            let mut sorted = items.clone();
            sorted.sort_by(cmp);
            sorted.truncate(TOP_K);
            let top = top_k(items.iter().copied(), cmp);
            proptest::prop_assert_eq!(&top, &sorted);
            proptest::prop_assert!(top.capacity() <= TOP_K + 1);
        }
    }
    #[test]
    fn top_k_of_nothing_is_empty() {
        assert!(top_k(std::iter::empty::<u8>(), Ord::cmp).is_empty());
    }
    /// A context that binds before it has CCT nodes queues for the
    /// snapshot's fold with its first CCT delta, and the snapshot
    /// folds its whole mass.
    #[test]
    fn a_cct_that_arrives_after_its_context_binds_is_folded() {
        use whodunit_core::delta::{diff_dump, StreamStage};
        use whodunit_core::stitch::{DumpCct, DumpContext, DumpNode};
        let node = |frame, parent, samples| DumpNode {
            frame,
            parent,
            samples,
            cycles: samples * 10,
            calls: 1,
        };
        let bare = StageDump {
            stage_name: "front".into(),
            frames: vec!["main".into()],
            contexts: vec![DumpContext::default()],
            ..StageDump::default()
        };
        let grown = StageDump {
            ccts: vec![DumpCct {
                ctx: 0,
                nodes: vec![node(None, None, 1), node(Some(0), Some(0), 3)],
            }],
            ..bare.clone()
        };
        let header = StreamHeader {
            stages: vec![StreamStage {
                proc: 0,
                stage_name: "front".into(),
            }],
        };
        let mut c = Collector::new(CollectorConfig::default());
        c.start(&header);
        for (e, delta) in [
            diff_dump(0, 0, None, &bare),
            diff_dump(0, 1, Some(&bare), &grown),
        ]
        .into_iter()
        .enumerate()
        {
            let deltas = vec![delta.expect("the dump grew")];
            let (epoch, end) = (e as u64, (e as u64 + 1) * 100);
            assert!(c.enqueue(EpochBatch {
                epoch,
                seq: epoch,
                end,
                deltas
            }));
            c.drain();
        }
        let snap = c.snapshot();
        assert_eq!(snap.origins, 1);
        let top = &snap.top_paths[0];
        assert_eq!(
            (top.cycles, top.samples, top.path.join(">")),
            (40, 4, "main".into())
        );
    }
    #[test]
    fn a_fold_drops_the_hot_path_memo() {
        use whodunit_core::delta::{diff_dump, StreamStage};
        use whodunit_core::stitch::{DumpCct, DumpContext, DumpNode};
        let node = |frame, parent, samples| DumpNode {
            frame,
            parent,
            samples,
            cycles: samples * 10,
            calls: 1,
        };
        // main → a is the hot path; then `b` appears under main (a
        // non-root parent) and outweighs it.
        let mut nodes = vec![
            node(None, None, 0),
            node(Some(0), Some(0), 1),
            node(Some(1), Some(1), 5),
        ];
        let dump_of = |nodes: &[DumpNode]| StageDump {
            stage_name: "front".into(),
            frames: vec!["main".into(), "a".into(), "b".into()],
            contexts: vec![DumpContext::default()],
            ccts: vec![DumpCct {
                ctx: 0,
                nodes: nodes.to_vec(),
            }],
            ..StageDump::default()
        };
        let first = dump_of(&nodes);
        nodes.push(node(Some(2), Some(1), 9));
        let second = dump_of(&nodes);
        let header = StreamHeader {
            stages: vec![StreamStage {
                proc: 0,
                stage_name: "front".into(),
            }],
        };
        let batch = |epoch: u64, delta: Option<StageDelta>| EpochBatch {
            epoch,
            seq: epoch,
            end: (epoch + 1) * 100,
            deltas: delta.into_iter().collect(),
        };
        let stream = [
            batch(0, diff_dump(0, 0, None, &first)),
            batch(1, None),
            batch(2, diff_dump(0, 1, Some(&first), &second)),
        ];
        let mut c = Collector::new(CollectorConfig::default());
        c.start(&header);
        let top = |c: &mut Collector| {
            let snap = c.snapshot();
            assert_eq!(snap.origins, 1);
            (snap.top_paths[0].path.join(">"), snap.top_paths[0].samples)
        };
        for (i, b) in stream.iter().enumerate() {
            assert!(c.enqueue(b.clone()));
            c.drain();
            match i {
                0 => {}
                // Nothing folded; this snapshot memoizes the hot path.
                1 => assert_eq!(top(&mut c), ("main>a".into(), 6)),
                // The fold grew the tree and dropped the memo.
                _ => assert_eq!(top(&mut c), ("main>b".into(), 15)),
            }
        }

        let out = c.finalize();
        let batch = whodunit_core::pipeline::analyze(vec![second], PipelineConfig::default());
        assert_eq!(out.report.fingerprint(), batch.fingerprint());
        assert_eq!(out.report.stitched_text(), batch.stitched_text());
    }
}
