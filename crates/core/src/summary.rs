//! Compacted summary deltas: the wire format between federation
//! levels.
//!
//! A leaf collector ingests per-epoch [`StageDelta`]s from its slice of
//! the fleet and periodically emits one [`SummaryFrame`] — the *merged*
//! increment of everything it absorbed since its previous frame. A
//! regional aggregator folds frames from many leaves into its own
//! pending increment and re-emits coarser frames upstream; the global
//! root applies each frame whole to one ordinary
//! [`StageAccumulator`](crate::delta::StageAccumulator) per stage
//! ([`apply_frame`](crate::delta::apply_frame)), so the composition of
//! every frame reconstructs exactly the cumulative dumps a flat run
//! would have produced — the federation's byte-identity anchor.
//!
//! The algebra that makes this sound is [`merge_stage_delta`]:
//! sequential composition of two same-stage increments. It preserves
//! the accumulator semantics exactly,
//!
//! ```text
//! apply(merge(d1, d2)) == apply(d1); apply(d2)
//! ```
//!
//! and is associative, so any flush cadence at any level composes to
//! the same cumulative state (the property suite pins both laws down).
//! Increments for *different* stages commute trivially — every stage is
//! owned by exactly one leaf, so cross-leaf merge order at a regional
//! can never interleave one stage's deltas.
//!
//! Frames also carry the freight the root reads, which does not enter
//! the byte-locked report: per-originating-leaf interval profile mass
//! (the root's coverage ledger) and per-leaf gauges ([`LeafGauges`])
//! for the topology view and the recovery log.

use crate::delta::{CctDelta, Incoming, StageDelta};
use crate::hash::FnvLanes;
use crate::stitch::{DumpCrosstalkPair, DumpCrosstalkWaiter};
use std::fmt;

/// Why two stage deltas could not be merged.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MergeError {
    /// Stage index of the offending pair.
    pub stage: usize,
    /// What was inconsistent.
    pub what: &'static str,
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stage {}: cannot merge deltas: {}",
            self.stage, self.what
        )
    }
}

/// An empty increment for `stage` (seq 0, checksum unset). The identity
/// of [`merge_stage_delta`]: merging any delta into it yields that
/// delta's content.
pub fn empty_delta(stage: usize) -> StageDelta {
    StageDelta {
        stage,
        seq: 0,
        new_frames: Vec::new(),
        new_contexts: Vec::new(),
        new_synopses: Vec::new(),
        ccts: Vec::new(),
        pairs: Vec::new(),
        waiters: Vec::new(),
        piggyback_bytes: 0,
        messages: 0,
        checksum: 0,
    }
}

/// Whether `next` composes onto `acc` ([`merge_stage_delta`]'s checks,
/// with no mutation): both name one stage, both are in canonical form
/// ([`StageDelta::check_order`]), and their CCT increments join
/// ([`check_join`]). Deltas come from outside the program, so every
/// count is checked, never trusted.
pub fn check_merge(acc: &StageDelta, next: &StageDelta) -> Result<(), MergeError> {
    let refuse = |what| MergeError {
        stage: acc.stage,
        what,
    };
    if next.stage != acc.stage {
        return Err(refuse("stage index mismatch"));
    }
    acc.check_order().map_err(refuse)?;
    next.check_order().map_err(refuse)?;
    check_join(acc, next)
}

/// [`check_merge`]'s join of two deltas already in canonical form: each
/// of `next`'s CCT increments starts at `acc`'s baseline plus its
/// appended nodes for that context and grows only nodes below its own
/// baseline. A caller that calls it alone must know both operands are
/// canonical and name one stage.
#[deny(clippy::indexing_slicing)]
pub fn check_join(acc: &StageDelta, next: &StageDelta) -> Result<(), MergeError> {
    let refuse = |what| MergeError {
        stage: acc.stage,
        what,
    };
    let mut ai = acc.ccts.iter().peekable();
    for n in &next.ccts {
        while ai.peek().is_some_and(|a| a.ctx < n.ctx) {
            ai.next();
        }
        let extended = match ai.peek() {
            Some(a) if a.ctx == n.ctx => u64::from(a.nodes_before) + a.new_nodes.len() as u64,
            _ => u64::from(n.nodes_before),
        };
        if u64::from(n.nodes_before) != extended {
            return Err(refuse(
                "CCT baseline does not extend the accumulated increment",
            ));
        }
        // Rows ascend, so the last names the highest node.
        if n.grown.last().is_some_and(|&(i, ..)| i >= n.nodes_before) {
            return Err(refuse("CCT growth targets a node past its baseline"));
        }
    }
    Ok(())
}

/// Sequentially composes `next` into `acc` (both increments of the
/// same stage, `next` covering the interval immediately after `acc`),
/// so that applying the merged delta equals applying `acc` then `next`.
///
/// Intern-table tails and synopsis mints concatenate; crosstalk
/// increments sum by key; CCT increments compose per context — `next`'s
/// growth of nodes `acc` itself appended folds into those appended
/// nodes, growth of older nodes sums into `acc`'s growth list. The
/// composition is checked first ([`check_merge`]), so a pair that does
/// not compose, or a delta whose keyed lists do not strictly ascend,
/// leaves `acc` untouched and fails here instead of corrupting an
/// upstream accumulator. With every list strictly ascending, each
/// merges in place in one linear pass.
///
/// `acc`'s `stage` and `seq` are preserved and its `checksum` is left
/// **unset** (zero): the sender stamps the outgoing sequence number and
/// seals the checksum once per frame ([`crate::wire::seal_summary`]),
/// not once per merged epoch.
#[deny(clippy::indexing_slicing)]
pub fn merge_stage_delta(acc: &mut StageDelta, next: &StageDelta) -> Result<(), MergeError> {
    check_merge(acc, next)?;
    acc.new_frames.extend_from_slice(&next.new_frames);
    acc.new_contexts.extend_from_slice(&next.new_contexts);
    merge_sorted(
        &mut acc.ccts,
        &mut Copied(&next.ccts),
        |c| c.ctx,
        compose_cct,
    );
    merge_rows(acc, next);
    Ok(())
}

/// [`merge_stage_delta`] for a caller that owns `next` and is done
/// with it: its frame names, contexts and the CCT increments of
/// contexts `acc` does not hold move into `acc` instead of being
/// copied. What is left of `next` is spare storage, its content
/// unspecified; a refused merge leaves both untouched.
#[deny(clippy::indexing_slicing)]
pub fn merge_owned_delta(acc: &mut StageDelta, next: &mut StageDelta) -> Result<(), MergeError> {
    check_merge(acc, next)?;
    acc.new_frames.append(&mut next.new_frames);
    acc.new_contexts.append(&mut next.new_contexts);
    merge_sorted(
        &mut acc.ccts,
        &mut Moved(&mut next.ccts),
        |c| c.ctx,
        compose_cct,
    );
    merge_rows(acc, next);
    Ok(())
}

/// The rest of a merge, which copies plain rows: synopsis mints,
/// crosstalk sums and the counters. Unsets the checksum.
fn merge_rows(acc: &mut StageDelta, next: &StageDelta) {
    acc.new_synopses.extend_from_slice(&next.new_synopses);
    let pair = |p: &DumpCrosstalkPair| (p.waiter, p.holder);
    let add_pair = |a: &mut DumpCrosstalkPair, n: &DumpCrosstalkPair| {
        a.count += n.count;
        a.total_wait += n.total_wait;
    };
    merge_sorted(&mut acc.pairs, &mut Copied(&next.pairs), pair, add_pair);
    let waiter = |w: &DumpCrosstalkWaiter| w.waiter;
    let add_waiter = |a: &mut DumpCrosstalkWaiter, n: &DumpCrosstalkWaiter| {
        a.count += n.count;
        a.total_wait += n.total_wait;
    };
    let waiters = &mut Copied(&next.waiters);
    merge_sorted(&mut acc.waiters, waiters, waiter, add_waiter);
    acc.piggyback_bytes += next.piggyback_bytes;
    acc.messages += next.messages;
    acc.checksum = 0;
}

/// Composes `n` (the later increment) into `a` for one context.
/// [`check_merge`] has already checked `n.nodes_before ==
/// a.nodes_before + a.new_nodes.len()`, that `n` grows only nodes
/// below that, so every grown node is in `a` or before it, and that
/// both growth lists ascend.
#[deny(clippy::indexing_slicing)]
fn compose_cct(a: &mut CctDelta, n: &CctDelta) {
    let add = |g: &mut (u32, u64, u64, u64), n: &(u32, u64, u64, u64)| {
        g.1 += n.1;
        g.2 += n.2;
        g.3 += n.3;
    };
    // Ascending rows split where `a`'s own nodes start: growth of nodes
    // that predate `a` merges into `a`'s growth list, the rest folds
    // into the nodes `a` appended.
    let split = n.grown.partition_point(|g| g.0 < a.nodes_before);
    let (older, own) = n.grown.split_at(split);
    merge_sorted(&mut a.grown, &mut Copied(older), |g| g.0, add);
    for g in own {
        fold_into_node(a, g);
    }
    a.new_nodes.extend_from_slice(&n.new_nodes);
}

/// Folds growth row `g` of a node `a` itself appended into that node's
/// metrics.
fn fold_into_node(a: &mut CctDelta, &(i, s, cy, ca): &(u32, u64, u64, u64)) {
    if let Some(node) = a.new_nodes.get_mut((i - a.nodes_before) as usize) {
        node.samples += s;
        node.cycles += cy;
        node.calls += ca;
    }
}

/// The later delta's rows of one list, as a merge takes them.
trait Rows<T> {
    fn rows(&self) -> &[T];
    /// Row `j`, for the earlier delta to keep.
    fn take(&mut self, j: usize) -> Option<T>;
}

/// A borrowed list: a row kept is a copy.
struct Copied<'a, T>(&'a [T]);

/// A list its owner is done with: a row kept moves out, leaving an
/// empty row behind.
struct Moved<'a, T>(&'a mut [T]);

impl<T: Clone> Rows<T> for Copied<'_, T> {
    fn rows(&self) -> &[T] {
        self.0
    }
    fn take(&mut self, j: usize) -> Option<T> {
        self.0.get(j).cloned()
    }
}

impl<T: Default> Rows<T> for Moved<'_, T> {
    fn rows(&self) -> &[T] {
        self.0
    }
    fn take(&mut self, j: usize) -> Option<T> {
        self.0.get_mut(j).map(std::mem::take)
    }
}

/// Merges `next` into `acc` in place, both strictly ascending by `key`
/// ([`check_merge`] has checked): a row whose key `acc` holds folds
/// into that row, and every other row lands where it sorts, with each
/// row of `acc` moved at most once.
#[deny(clippy::indexing_slicing)]
fn merge_sorted<T: Default, K: Ord + Copy>(
    acc: &mut Vec<T>,
    next: &mut impl Rows<T>,
    key: impl Fn(&T) -> K,
    fold: impl Fn(&mut T, &T),
) {
    // Forward: fold the rows of keys `acc` holds; count the others.
    let mut fresh = 0;
    let mut ai = acc.iter_mut().peekable();
    for n in next.rows() {
        while ai.next_if(|a| key(a) < key(n)).is_some() {}
        match ai.next_if(|a| key(a) == key(n)) {
            Some(a) => fold(a, n),
            None => fresh += 1,
        }
    }
    // Backward: grow `acc` by the fresh rows and fill it from the end,
    // the larger key first. `kept` counts `acc`'s rows not yet moved
    // and `end` the slots not yet filled; `end - kept` is the number
    // of fresh rows still to place, so every row lands in an empty slot.
    let mut kept = acc.len();
    acc.resize_with(kept + fresh, T::default);
    let mut end = acc.len();
    let last_kept =
        |acc: &Vec<T>, kept: usize| kept.checked_sub(1).and_then(|i| acc.get(i)).map(&key);
    for j in (0..next.rows().len()).rev() {
        let Some(k) = next.rows().get(j).map(&key) else {
            break;
        };
        if end == kept {
            break;
        }
        while last_kept(acc, kept).is_some_and(|a| a > k) {
            kept -= 1;
            end -= 1;
            acc.swap(kept, end);
        }
        if last_kept(acc, kept) == Some(k) {
            continue; // folded in the forward pass
        }
        end -= 1;
        if let (Some(slot), Some(row)) = (acc.get_mut(end), next.take(j)) {
            *slot = row;
        }
    }
}

/// Stamps the outgoing per-stage sequence number on a merged delta and
/// recomputes its checksum: the delta as a federation node ships it
/// (which [`crate::wire::seal_summary`] does for a whole frame).
pub fn seal_delta(mut d: StageDelta, seq: u64) -> StageDelta {
    d.seq = seq;
    d.seal();
    d
}

/// Health and lag gauges for one leaf, riding on every frame its
/// subtree emits.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LeafGauges {
    /// Last input epoch the leaf folded.
    pub last_epoch: u64,
    /// Frames sitting in the leaf's spool when this was sampled.
    pub lag_frames: u64,
    /// Crash recoveries performed, since the start.
    pub recoveries: u64,
}

/// One federation frame: the merged increment a node ships upstream,
/// plus its operational freight.
///
/// The byte form the federation links actually ship is the columnar
/// binary codec in [`crate::wire`] ([`crate::wire::seal_summary`] /
/// [`crate::wire::decode_summary`]); this struct is the in-memory
/// form, and its [`SummaryFrame::checksum`] stays the end-to-end
/// content digest on both encodings.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SummaryFrame {
    /// Emitting node id (unique per link).
    pub src: u32,
    /// Per-link frame sequence number, contiguous from 0. Receivers
    /// park reordered frames, drop duplicates, and ack cumulatively by
    /// this number.
    pub seq: u64,
    /// Last input epoch the frame's interval covers.
    pub last_epoch: u64,
    /// Merged per-stage increments (global stage indices, per-stage
    /// sequence numbers stamped by the sender, checksums sealed by
    /// [`crate::wire::seal_summary`]).
    pub deltas: Vec<StageDelta>,
    /// Interval profile mass per originating leaf, sorted by leaf id —
    /// the root's per-subtree coverage ledger.
    pub leaf_mass: Vec<(u32, u64)>,
    /// Latest known gauges per originating leaf, sorted by leaf id.
    pub gauges: Vec<(u32, LeafGauges)>,
    /// FNV-1a digest of everything above.
    pub checksum: u64,
}

impl SummaryFrame {
    /// Total change events across the frame's deltas.
    pub fn events(&self) -> u64 {
        self.deltas.iter().map(|d| d.events()).sum()
    }

    /// The lane-wise FNV-1a digest of the frame's content (everything
    /// except the stored `checksum` itself). Delta content is folded in
    /// through each delta's own checksum — computed once, when the
    /// delta is sealed — so frame sealing is O(freight), not O(content).
    pub fn compute_checksum(&self) -> u64 {
        let mut h = FnvLanes::new();
        h.write_u64(self.src as u64);
        h.write_u64(self.seq);
        h.write_u64(self.last_epoch);
        h.write_u64(self.deltas.len() as u64);
        for d in &self.deltas {
            h.write_u64(d.stage as u64);
            h.write_u64(d.seq);
            h.write_u64(d.checksum);
        }
        h.write_u64(self.leaf_mass.len() as u64);
        for &(leaf, m) in &self.leaf_mass {
            h.write_u64(leaf as u64);
            h.write_u64(m);
        }
        h.write_u64(self.gauges.len() as u64);
        for &(leaf, g) in &self.gauges {
            h.write_u64(leaf as u64);
            for v in [g.last_epoch, g.lag_frames, g.recoveries] {
                h.write_u64(v);
            }
        }
        h.finish()
    }

    /// Seals the frame: recomputes and stores the checksum.
    pub fn seal(mut self) -> SummaryFrame {
        self.checksum = self.compute_checksum();
        self
    }

    /// Whether the stored checksum matches the content.
    pub fn verify(&self) -> bool {
        self.checksum == self.compute_checksum()
    }
}

/// A [`SummaryFrame`] as the wire decoder read it
/// ([`crate::wire::OpenSummary::read`]), and which check each delta's
/// checksum is due ([`IncomingSummary::deltas`]). Every `checksum` field
/// holds a value, since the frame's own checksum folds them in: a delta
/// whose section stored none has the value its content implies, which
/// the decoder computed and the frame's checksum then verified, so it
/// comes out [`Incoming::Unsealed`] and nothing compares it again. A
/// frame that stored any delta checksum — never one a clean sender
/// sealed — has every delta compared.
#[derive(Debug, PartialEq, Eq)]
pub struct IncomingSummary {
    pub(crate) frame: SummaryFrame,
    pub(crate) unsealed: bool,
}

impl IncomingSummary {
    /// The frame.
    pub fn frame(&self) -> &SummaryFrame {
        &self.frame
    }

    /// The deltas, each under the check it is due.
    pub fn deltas(&self) -> impl Iterator<Item = Incoming<'_>> + Clone {
        let unsealed = self.unsealed;
        self.frame
            .deltas
            .iter()
            .map(move |d| Incoming::vouched(d, unsealed))
    }

    /// The plain frame, for a holder that has run every check it needs.
    pub fn into_frame(self) -> SummaryFrame {
        self.frame
    }
}

/// The profile mass (CCT cycle increments) a delta carries — the unit
/// of the federation's conservation ledger.
pub fn delta_mass(d: &StageDelta) -> u64 {
    d.ccts
        .iter()
        .map(|c| {
            c.new_nodes.iter().map(|n| n.cycles).sum::<u64>()
                + c.grown.iter().map(|&(_, _, cy, _)| cy).sum::<u64>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{diff_dump, StageAccumulator, StreamStage};
    use crate::stitch::{DumpAtom, DumpCct, DumpContext, DumpCrosstalkPair, DumpNode, StageDump};

    fn node(frame: Option<u32>, parent: Option<u32>, cycles: u64) -> DumpNode {
        DumpNode {
            frame,
            parent,
            samples: cycles / 100,
            cycles,
            calls: 1,
        }
    }

    /// Three successive snapshots of one synthetic stage.
    fn snapshots() -> [StageDump; 3] {
        let s0 = StageDump {
            proc: 1,
            stage_name: "app".into(),
            frames: vec!["main".into()],
            contexts: vec![DumpContext::default()],
            ccts: vec![DumpCct {
                ctx: 0,
                nodes: vec![node(None, None, 100)],
            }],
            synopses: vec![(0x0100_0000, 0)],
            crosstalk_pairs: vec![],
            crosstalk_waiters: vec![],
            piggyback_bytes: 4,
            messages: 1,
        };
        let mut s1 = s0.clone();
        s1.frames.push("handle".into());
        s1.contexts.push(DumpContext {
            atoms: vec![DumpAtom::Frame(1)].into(),
        });
        s1.ccts[0].nodes[0].cycles += 50;
        s1.ccts[0].nodes.push(node(Some(1), Some(0), 70));
        s1.ccts.push(DumpCct {
            ctx: 1,
            nodes: vec![node(Some(1), None, 30)],
        });
        s1.crosstalk_pairs.push(DumpCrosstalkPair {
            waiter: 1,
            holder: 0,
            count: 1,
            total_wait: 10,
        });
        s1.piggyback_bytes += 8;
        let mut s2 = s1.clone();
        s2.synopses.push((0x0100_0001, 1));
        // Grow both an old node (pre-s1) and a node s1 appended.
        s2.ccts[0].nodes[0].cycles += 5;
        s2.ccts[0].nodes[1].cycles += 25;
        s2.ccts[0].nodes.push(node(Some(0), Some(1), 60));
        s2.crosstalk_pairs[0].count += 2;
        s2.crosstalk_pairs[0].total_wait += 30;
        s2.messages += 3;
        [s0, s1, s2]
    }

    fn stage() -> StreamStage {
        StreamStage {
            proc: 1,
            stage_name: "app".into(),
        }
    }

    #[test]
    fn merged_delta_equals_sequential_application() {
        let [s0, s1, s2] = snapshots();
        let d0 = diff_dump(0, 0, None, &s0).unwrap();
        let d1 = diff_dump(0, 1, Some(&s0), &s1).unwrap();
        let d2 = diff_dump(0, 2, Some(&s1), &s2).unwrap();

        // Sequential application of the three raw deltas.
        let mut seq_acc = StageAccumulator::new(&stage());
        for d in [&d0, &d1, &d2] {
            seq_acc.apply(d).unwrap();
        }

        // Merge all three, then apply once.
        let mut m = d0.clone();
        merge_stage_delta(&mut m, &d1).unwrap();
        merge_stage_delta(&mut m, &d2).unwrap();
        let m = seal_delta(m, 0);
        let mut one_acc = StageAccumulator::new(&stage());
        one_acc.apply(&m).unwrap();

        assert_eq!(one_acc.to_dump(), seq_acc.to_dump());
        assert_eq!(one_acc.to_dump(), s2);
    }

    #[test]
    fn merge_is_associative() {
        let [s0, s1, s2] = snapshots();
        let d0 = diff_dump(0, 0, None, &s0).unwrap();
        let d1 = diff_dump(0, 1, Some(&s0), &s1).unwrap();
        let d2 = diff_dump(0, 2, Some(&s1), &s2).unwrap();

        let mut left = d0.clone();
        merge_stage_delta(&mut left, &d1).unwrap();
        merge_stage_delta(&mut left, &d2).unwrap();

        let mut right_tail = d1.clone();
        merge_stage_delta(&mut right_tail, &d2).unwrap();
        let mut right = d0.clone();
        merge_stage_delta(&mut right, &right_tail).unwrap();

        assert_eq!(seal_delta(left, 7), seal_delta(right, 7));
    }

    #[test]
    fn merge_into_identity_preserves_content() {
        let [s0, _, _] = snapshots();
        let d0 = diff_dump(0, 0, None, &s0).unwrap();
        let mut m = empty_delta(0);
        merge_stage_delta(&mut m, &d0).unwrap();
        assert_eq!(seal_delta(m, d0.seq), d0);
    }

    #[test]
    fn merge_rejects_non_extending_baseline() {
        let [s0, s1, s2] = snapshots();
        let d0 = diff_dump(0, 0, None, &s0).unwrap();
        let d2 = diff_dump(0, 2, Some(&s1), &s2).unwrap();
        let mut m = d0.clone();
        // d2's baseline presumes d1 was folded in; merging it straight
        // onto d0 must fail loudly and leave `m` unchanged.
        let before = m.clone();
        assert!(merge_stage_delta(&mut m, &d2).is_err());
        assert_eq!(m, before);
    }

    #[test]
    fn merge_rejects_growth_past_the_baseline() {
        let [s0, s1, s2] = snapshots();
        let mut m = diff_dump(0, 0, None, &s0).unwrap();
        merge_stage_delta(&mut m, &diff_dump(0, 1, Some(&s0), &s1).unwrap()).unwrap();
        let mut d2 = diff_dump(0, 2, Some(&s1), &s2).unwrap();
        // The last of several ascending rows names a node d2 appends.
        let c = &mut d2.ccts[0];
        assert!(!c.grown.is_empty());
        c.grown.push((c.nodes_before, 0, 5, 0));
        let before = m.clone();
        let what = "CCT growth targets a node past its baseline";
        assert_eq!(
            merge_stage_delta(&mut m, &d2),
            Err(MergeError { stage: 0, what })
        );
        assert_eq!(m, before);
    }

    #[test]
    fn merge_rejects_cross_stage_pairs() {
        let [s0, _, _] = snapshots();
        let d0 = diff_dump(0, 0, None, &s0).unwrap();
        let other = diff_dump(3, 0, None, &s0).unwrap();
        let mut m = d0.clone();
        assert!(merge_stage_delta(&mut m, &other).is_err());
    }

    #[test]
    fn delta_mass_counts_new_and_grown_cycles() {
        let [s0, s1, _] = snapshots();
        let d1 = diff_dump(0, 1, Some(&s0), &s1).unwrap();
        // s1 added 50 cycles to an old node and 70 + 30 in new nodes.
        assert_eq!(delta_mass(&d1), 150);
    }

    #[test]
    fn frame_checksum_covers_freight() {
        let [s0, _, _] = snapshots();
        let d0 = seal_delta(diff_dump(0, 0, None, &s0).unwrap(), 0);
        let frame = SummaryFrame {
            src: 3,
            seq: 0,
            last_epoch: 4,
            deltas: vec![d0],
            leaf_mass: vec![(3, 200)],
            gauges: vec![(3, LeafGauges::default())],
            checksum: 0,
        }
        .seal();
        assert!(frame.verify());
        let mut bad = frame.clone();
        bad.leaf_mass[0].1 += 1;
        assert!(!bad.verify());
    }
}
