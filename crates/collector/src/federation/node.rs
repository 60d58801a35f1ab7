//! The federation's nodes: the [`Increment`] every sender ships, the
//! leaf with its redo journal, the regional aggregator and the root.
//! The [`Federation`](super::Federation) harness owns them and carries
//! their frames.

use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;
use whodunit_core::delta::{
    apply_frame, stage_out_of_turn, Compared, DeltaError, EpochBatch, StageAccumulator, StageDelta,
    StreamHeader,
};
use whodunit_core::summary::{
    check_join, delta_mass, empty_delta, merge_owned_delta, merge_stage_delta, IncomingSummary,
    LeafGauges, SummaryFrame,
};

use super::FederationStats;
use crate::link::{AckMode, RxState, Sender, Uplink};

/// The per-leaf ledger a frame carries, keyed by originating leaf.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(super) struct Ledger {
    /// Profile mass: of the pending interval at a sender, of the whole
    /// run at the root.
    pub(super) mass: BTreeMap<u32, u64>,
    /// Latest gauges (by `last_epoch`).
    pub(super) gauges: BTreeMap<u32, LeafGauges>,
}

impl Ledger {
    /// Folds in a frame's per-leaf mass and gauges.
    fn fold(&mut self, f: &SummaryFrame) {
        for &(l, m) in &f.leaf_mass {
            *self.mass.entry(l).or_insert(0) += m;
        }
        for &(l, g) in &f.gauges {
            let e = self.gauges.entry(l).or_insert(g);
            if g.last_epoch >= e.last_epoch {
                *e = g;
            }
        }
    }
}

/// What a node has merged since its last flush: everything it ships
/// upstream as one sealed [`SummaryFrame`]. A leaf fills it from its
/// input, a regional from its children's frames; [`Increment::flush`]
/// seals the frame for both. Per-stage state is indexed by the node's
/// stage slot: the stage's place in the node's ascending stage list.
#[derive(Default)]
pub(super) struct Increment {
    /// Merged not-yet-flushed delta by stage slot: only the stages the
    /// interval touched, so a node holds no per-stage struct between
    /// flushes.
    pending: BTreeMap<usize, StageDelta>,
    /// Next outgoing delta seq per stage slot.
    out_seq: Vec<u64>,
    /// Change events in the pending deltas.
    events: u64,
    /// Last input epoch the pending interval covers; `None` while the
    /// interval is empty.
    pub(super) interval: Option<u64>,
    /// Interval mass and latest gauges per originating leaf.
    pub(super) ledger: Ledger,
}

impl Clone for Increment {
    fn clone(&self) -> Self {
        let mut c = Increment::default();
        c.clone_from(self);
        c
    }

    /// Field by field, so a checkpoint refills its own lists instead of
    /// dropping them and allocating new ones. Exhaustive on purpose: a
    /// new field must decide here how it is copied.
    fn clone_from(&mut self, src: &Self) {
        let Increment {
            pending,
            out_seq,
            events,
            interval,
            ledger,
        } = src;
        self.pending.clone_from(pending);
        self.out_seq.clone_from(out_seq);
        self.events = *events;
        self.interval = *interval;
        self.ledger.clone_from(ledger);
    }
}

impl Increment {
    /// An empty increment over `slots` stages.
    fn new(slots: usize) -> Increment {
        Increment {
            pending: BTreeMap::new(),
            out_seq: vec![0; slots],
            ..Increment::default()
        }
    }

    /// Merges the next in-order increment of the stage in `slot` into
    /// that stage's pending delta. The interval's first delta of a
    /// stage *is* its pending delta — merged into the empty delta, its
    /// content comes out unchanged, and [`Increment::flush`] restamps
    /// its seq and checksum — so it moves in, or is cloned once if
    /// borrowed. A later owned delta gives its lists up to the merge
    /// instead of having them copied. Every caller's delta merges: a
    /// leaf's is input its accumulators took, a regional's comes from a
    /// frame [`Increment::admits`].
    fn absorb_delta(&mut self, slot: usize, d: Cow<'_, StageDelta>) {
        self.events += d.events();
        let merges = match (self.pending.entry(slot), d) {
            (Entry::Vacant(e), d) => {
                e.insert(d.into_owned());
                Ok(())
            }
            (Entry::Occupied(e), Cow::Borrowed(d)) => merge_stage_delta(e.into_mut(), d),
            (Entry::Occupied(e), Cow::Owned(mut d)) => merge_owned_delta(e.into_mut(), &mut d),
        };
        merges.expect("contiguous same-stage increments always merge");
    }

    /// Whether a child frame's deltas all merge in: they name strictly
    /// ascending stages, each one of the node's `stages` (ascending),
    /// and each delta carries that stage's next expected seq in `in_seq`
    /// (by slot), holds the checksum its content implies if its frame
    /// stored one, and joins the stage's pending delta (the empty delta
    /// if there is none). Every delta is checked against the state
    /// before the frame, so the frame merges whole or not at all. Only
    /// the join is checked here: the frame's deltas were read by
    /// [`IncomingSummary`]'s decoder, which refuses one out of canonical
    /// form, and every pending delta was built by merges that checked
    /// both operands.
    fn admits(&self, stages: &[usize], f: &IncomingSummary, in_seq: &[u64]) -> bool {
        let frame = f.frame();
        stage_out_of_turn(frame.deltas.iter().map(|d| d.stage)).is_none()
            && f.deltas().all(|incoming| {
                let d = incoming.delta();
                let Ok(slot) = stages.binary_search(&d.stage) else {
                    return false;
                };
                let pending = self.pending.get(&slot);
                d.seq == in_seq[slot]
                    && incoming.verify()
                    && check_join(pending.unwrap_or(&empty_delta(d.stage)), d).is_ok()
            })
    }

    /// Widens the pending interval to input epoch `last`.
    fn cover(&mut self, last: u64) {
        self.interval = Some(self.interval.map_or(last, |b| b.max(last)));
    }

    /// Folds a child frame's freight — last epoch, per-leaf mass and
    /// gauges — into this increment.
    fn fold_freight(&mut self, f: &SummaryFrame) {
        self.cover(f.last_epoch);
        self.ledger.fold(f);
    }

    /// Seals everything merged since the last flush into one frame from
    /// `src` on `up`, its deltas in slot (stage) order. A full spool
    /// stalls the flush (the increment keeps
    /// merging: lag, not loss); an interval with no content ships
    /// nothing. A leaf's own gauges, filed under `src`, report the spool
    /// lag as of this flush.
    pub(super) fn flush(&mut self, src: u32, up: &mut Uplink, stats: &mut FederationStats) {
        let Some(last_epoch) = self.interval else {
            return;
        };
        if up.is_full() {
            stats.spool_stalls += 1;
            return;
        }
        self.interval = None;
        self.events = 0;
        let mut deltas = Vec::new();
        for (slot, mut d) in std::mem::take(&mut self.pending) {
            if d.is_empty() {
                continue;
            }
            // `Uplink::seal` computes the checksum.
            let seq = &mut self.out_seq[slot];
            d.seq = *seq;
            *seq += 1;
            deltas.push(d);
        }
        if deltas.is_empty() && self.ledger.mass.values().sum::<u64>() == 0 {
            return;
        }
        if let Some(g) = self.ledger.gauges.get_mut(&src) {
            g.lag_frames = up.spool_len() as u64;
        }
        let frame = SummaryFrame {
            src,
            seq: 0,
            last_epoch,
            deltas,
            leaf_mass: std::mem::take(&mut self.ledger.mass).into_iter().collect(),
            gauges: self.ledger.gauges.iter().map(|(&l, &g)| (l, g)).collect(),
            checksum: 0,
        };
        up.seal(frame);
    }
}

/// One logged mutation of a leaf's input accumulators: the unit of the
/// leaf's redo journal. The live state takes a delta through the
/// verifying [`StageAccumulator::apply_kept`], whose [`Compared`] the
/// journal keeps; [`Redo::replay`] is the only code that mutates the
/// checkpoint copy, so it takes every op through the same checks but
/// the checksum compare the live apply already made.
enum Redo {
    /// An input (or catch-up) delta.
    Apply(Compared),
    /// A resync fast-forwarded the expected input seq.
    Seek(u64),
}

impl Redo {
    fn replay(&self, acc: &mut StageAccumulator) -> Result<(), DeltaError> {
        match self {
            Redo::Apply(d) => acc.replay(d),
            Redo::Seek(next) => {
                acc.set_next_seq(*next);
                Ok(())
            }
        }
    }
}

/// Durable (checkpointed) state of one leaf.
#[derive(Clone)]
pub(super) struct LeafState {
    /// Input accumulators, parallel to the owned stage list. Needed to
    /// verify input deltas and to diff against resync snapshots, and,
    /// while the leaf is in lockstep, the only copy of what its stages'
    /// emitters hold. The only cumulative part of the state: a
    /// checkpoint advances its copy by replaying the journal, never by
    /// cloning.
    accs: Vec<StageAccumulator>,
    /// The outgoing increment. The leaf's own cumulative gauges ride in
    /// its ledger, under the leaf's id.
    pub(super) inc: Increment,
    /// Sender half of the uplink to the regional.
    pub(super) up: Uplink,
}

pub(super) struct LeafNode {
    pub(super) leaf_id: u32,
    pub(super) region: usize,
    pub(super) child_slot: usize,
    /// Owned global stage indices, ascending.
    stages: Vec<usize>,
    pub(super) st: LeafState,
    ckpt: LeafState,
    /// Every op applied to `st.accs` since `ckpt` was taken, as
    /// `(owned-stage slot, op)` in application order: `ckpt.accs` plus
    /// the journal is `st.accs`. Volatile — a crash loses it with `st`.
    journal: Vec<(usize, Redo)>,
    /// Change events the journal holds.
    journal_events: u64,
    pub(super) snd: Sender,
    pub(super) alive: bool,
    /// The input side is behind its emitters (a recovery, or a refused
    /// delta) and catches up from the harness's mirror at the next tick.
    pub(super) need_resync: bool,
}

impl LeafNode {
    /// Leaf `leaf_id`, child `child_slot` of region `region`, owning
    /// the header stages `stages` (ascending).
    pub(super) fn new(
        leaf_id: u32,
        region: usize,
        child_slot: usize,
        stages: Vec<usize>,
        header: &StreamHeader,
    ) -> LeafNode {
        // Built twice — live state and checkpoint zero — since the two
        // never share a copy again.
        let empty_state = || LeafState {
            accs: stages
                .iter()
                .map(|&gs| StageAccumulator::new(&header.stages[gs]))
                .collect(),
            inc: Increment::new(stages.len()),
            up: Uplink::default(),
        };
        let (st, ckpt) = (empty_state(), empty_state());
        LeafNode {
            leaf_id,
            region,
            child_slot,
            stages,
            snd: Sender::restart(&st.up, 0),
            st,
            ckpt,
            journal: Vec::new(),
            journal_events: 0,
            alive: true,
            need_resync: false,
        }
    }

    /// The leaf's own cumulative health gauges.
    fn gauges(&mut self) -> &mut LeafGauges {
        self.st.inc.ledger.gauges.entry(self.leaf_id).or_default()
    }

    /// Applies `d` to `st.accs[si]` and journals it; a refused delta
    /// leaves both untouched.
    fn apply(&mut self, si: usize, d: &StageDelta) -> Result<(), DeltaError> {
        let op = self.st.accs[si].apply_kept(d)?;
        self.journal_events += d.events();
        self.journal.push((si, Redo::Apply(op)));
        Ok(())
    }

    /// Fast-forwards `st.accs[si]` to expect input seq `next`, and
    /// journals it.
    fn seek(&mut self, si: usize, next: u64) {
        self.st.accs[si].set_next_seq(next);
        self.journal.push((si, Redo::Seek(next)));
    }

    /// Folds a delta the accumulators took into the outgoing increment:
    /// its mass and the pending merge.
    fn absorb(&mut self, si: usize, d: Cow<'_, StageDelta>) {
        let inc = &mut self.st.inc;
        *inc.ledger.mass.entry(self.leaf_id).or_insert(0) += delta_mass(&d);
        inc.absorb_delta(si, d);
    }

    /// The slot of global stage `gs` in the owned stage list, if this
    /// leaf owns it.
    pub(super) fn slot(&self, gs: usize) -> Option<usize> {
        self.stages.binary_search(&gs).ok()
    }

    /// The live input accumulators, parallel to the owned stage list.
    pub(super) fn accs(&self) -> &[StageAccumulator] {
        &self.st.accs
    }

    pub(super) fn ingest(&mut self, batch: &EpochBatch, stats: &mut FederationStats) {
        for d in &batch.deltas {
            let Some(si) = self.slot(d.stage) else {
                stats.foreign_deltas += 1;
                continue;
            };
            if self.apply(si, d).is_err() {
                stats.input_errors += 1;
                self.need_resync = true;
                continue;
            }
            self.absorb(si, Cow::Borrowed(d));
        }
        let g = self.gauges();
        g.last_epoch = g.last_epoch.max(batch.epoch);
        self.st.inc.cover(batch.epoch);
    }

    /// Catches the input side up to the emitter mirror, which holds
    /// each owned stage's clean stream in stage-list order: per stage,
    /// diff the accumulator against the emitter's snapshot and fold the
    /// catch-up delta through the normal merge path. The leaf is back
    /// in lockstep, so the mirror is spent.
    pub(super) fn catchup(
        &mut self,
        mirror: Vec<StageAccumulator>,
        up_to_epoch: u64,
        stats: &mut FederationStats,
    ) {
        let mut gained = false;
        for (si, emitter) in mirror.into_iter().enumerate() {
            let gs = self.stages[si];
            let upto = emitter.next_seq();
            let cd = self.st.accs[si]
                .catchup_delta(gs, &emitter.into_dump())
                .expect("the mirror replays this leaf's own clean input");
            if let Some(cd) = cd {
                self.apply(si, &cd).expect("catch-up delta applies");
                self.absorb(si, Cow::Owned(cd));
                gained = true;
            }
            self.seek(si, upto);
        }
        if gained {
            self.st.inc.cover(up_to_epoch);
        }
        let g = self.gauges();
        g.last_epoch = g.last_epoch.max(up_to_epoch);
        self.need_resync = false;
        stats.input_resyncs += 1;
    }

    /// Brings `ckpt` up to `st`: replays the journal into `ckpt.accs`
    /// and copies the rest, which is small — the un-flushed increment
    /// and a spool of shared bytes.
    pub(super) fn checkpoint(&mut self, stats: &mut FederationStats) {
        for (si, op) in self.journal.drain(..) {
            op.replay(&mut self.ckpt.accs[si])
                .expect("an op the live state took replays onto its checkpoint");
        }
        self.journal_events = 0;
        // Exhaustive on purpose: a new `LeafState` field must decide
        // here how it reaches the checkpoint.
        let LeafState { accs: _, inc, up } = &self.st;
        self.ckpt.inc.clone_from(inc);
        self.ckpt.up.clone_from(up);
        #[cfg(test)]
        tests::assert_checkpoint_is_a_clone(self);
        self.snd.checkpointed(&self.st.up);
        stats.checkpoints += 1;
    }

    pub(super) fn recover(&mut self, now: u64) {
        self.st = self.ckpt.clone();
        self.journal.clear();
        self.journal_events = 0;
        self.gauges().recoveries += 1;
        self.snd = Sender::restart(&self.st.up, now);
        self.alive = true;
        self.need_resync = true;
    }

    pub(super) fn resident_events(&self) -> u64 {
        self.st.inc.events + self.st.up.spool_events() + self.journal_events
    }
}

/// Durable (checkpointed) state of one regional aggregator.
pub(super) struct RegionalState {
    /// The outgoing increment, merged from the children's frames.
    pub(super) inc: Increment,
    /// Sender half of the uplink to the root.
    pub(super) up: Uplink,
    /// Per-child receive state.
    pub(super) rx: Vec<RxState>,
    /// Next expected incoming delta seq per stage slot.
    in_seq: Vec<u64>,
}

impl Clone for RegionalState {
    fn clone(&self) -> Self {
        RegionalState {
            inc: self.inc.clone(),
            up: self.up.clone(),
            rx: self.rx.clone(),
            in_seq: self.in_seq.clone(),
        }
    }

    /// Field by field, so a checkpoint refills its own lists.
    fn clone_from(&mut self, src: &Self) {
        let RegionalState {
            inc,
            up,
            rx,
            in_seq,
        } = src;
        self.inc.clone_from(inc);
        self.up.clone_from(up);
        self.rx.clone_from(rx);
        self.in_seq.clone_from(in_seq);
    }
}

pub(super) struct RegionalNode {
    pub(super) region_id: usize,
    pub(super) src: u32,
    /// Leaf ids of the children, by slot.
    pub(super) children: Vec<u32>,
    /// The stages the children own, ascending: the stage slots.
    stages: Vec<usize>,
    pub(super) st: RegionalState,
    ckpt: RegionalState,
    pub(super) snd: Sender,
    pub(super) alive: bool,
}

impl RegionalNode {
    /// Region `region_id`, sending as `src`, over the leaves `children`,
    /// which own `stages` (ascending).
    pub(super) fn new(
        region_id: usize,
        src: u32,
        children: Vec<u32>,
        stages: Vec<usize>,
    ) -> RegionalNode {
        let st = RegionalState {
            inc: Increment::new(stages.len()),
            up: Uplink::default(),
            rx: children.iter().map(|_| RxState::default()).collect(),
            in_seq: vec![0; stages.len()],
        };
        RegionalNode {
            region_id,
            src,
            children,
            stages,
            snd: Sender::restart(&st.up, 0),
            ckpt: st.clone(),
            st,
            alive: true,
        }
    }

    /// Handles one incoming frame; returns a cumulative ack to send
    /// back, if any is due now (regular acks ride the checkpoint
    /// cadence; only duplicates of already-covered frames re-ack
    /// immediately, to heal lost acks cheaply).
    pub(super) fn on_frame(
        &mut self,
        slot: usize,
        bytes: &[u8],
        stats: &mut FederationStats,
    ) -> Option<u64> {
        let RegionalNode { stages, st, .. } = self;
        let RegionalState {
            inc, rx, in_seq, ..
        } = st;
        rx[slot].receive(bytes, AckMode::OnCheckpoint, stats, |f, stats| {
            // A frame that does not merge whole is refused whole, and
            // the per-link seq does not advance: the sender retries
            // until the deadline marks the subtree degraded.
            if !inc.admits(stages, &f, in_seq) {
                stats.rejected_frames += 1;
                return false;
            }
            stats.frames_delivered += 1;
            let mut absorb = |d: Cow<'_, StageDelta>| {
                let si = stages.binary_search(&d.stage).expect("admitted");
                in_seq[si] += 1;
                inc.absorb_delta(si, d)
            };
            // A frame a checkpoint still holds merges borrowed; any
            // other moves its deltas in.
            match Arc::try_unwrap(f) {
                Ok(f) => {
                    let mut f = f.into_frame();
                    f.deltas.drain(..).for_each(|d| absorb(Cow::Owned(d)));
                    inc.fold_freight(&f);
                }
                Err(shared) => {
                    let f = shared.frame();
                    f.deltas.iter().for_each(|d| absorb(Cow::Borrowed(d)));
                    inc.fold_freight(f);
                }
            }
            true
        })
    }

    /// Takes a checkpoint and returns the cumulative acks now covered
    /// by it, per child leaf (periodic re-acks heal lost acks). The
    /// children's parked frames are shared, not copied.
    pub(super) fn checkpoint(&mut self, stats: &mut FederationStats) -> Vec<(usize, u64)> {
        let acks = self
            .st
            .rx
            .iter_mut()
            .zip(&self.children)
            .filter_map(|(rx, &leaf)| Some((leaf as usize, rx.checkpointed()?)))
            .collect();
        self.ckpt.clone_from(&self.st);
        self.snd.checkpointed(&self.st.up);
        stats.checkpoints += 1;
        acks
    }

    pub(super) fn recover(&mut self, now: u64) {
        self.st.clone_from(&self.ckpt);
        self.snd = Sender::restart(&self.st.up, now);
        self.alive = true;
    }

    pub(super) fn resident_events(&self) -> u64 {
        self.st.inc.events
            + self.st.up.spool_events()
            + self.st.rx.iter().map(|x| x.parked_events()).sum::<u64>()
    }
}

pub(super) struct RootNode {
    /// One accumulator per header stage, indexed by stage: everything
    /// the root holds of the profile, and all `analyze` needs of it.
    pub(super) accs: Vec<StageAccumulator>,
    /// Per-regional-link receive state.
    pub(super) rx: Vec<RxState>,
    /// Mass delivered since the start and latest gauges, per
    /// originating leaf — the applied frames' own ledger.
    pub(super) ledger: Ledger,
    pub(super) max_epoch: u64,
    /// Frames applied: the output's `CollectorStats::batches`.
    pub(super) frames_applied: u64,
}

impl RootNode {
    /// The root over `header`'s stages, receiving from `regions`
    /// regionals.
    pub(super) fn new(header: &StreamHeader, regions: usize) -> RootNode {
        RootNode {
            accs: header.stages.iter().map(StageAccumulator::new).collect(),
            rx: vec![RxState::default(); regions],
            ledger: Ledger::default(),
            max_epoch: 0,
            frames_applied: 0,
        }
    }

    /// Applies each frame whole or refuses it whole ([`apply_frame`]),
    /// each delta under the check its decoder vouched for; only an
    /// applied frame counts in the ledger. The root acks immediately on
    /// apply: it is the durable terminus of the tree (root crashes are
    /// out of scope).
    pub(super) fn on_frame(
        &mut self,
        slot: usize,
        bytes: &[u8],
        stats: &mut FederationStats,
    ) -> Option<u64> {
        let RootNode {
            accs,
            rx,
            ledger,
            max_epoch,
            frames_applied,
        } = self;
        rx[slot].receive(bytes, AckMode::Immediate, stats, |f, stats| {
            if apply_frame(accs, f.deltas()).is_err() {
                stats.rejected_frames += 1;
                return false;
            }
            let frame = f.frame();
            ledger.fold(frame);
            *max_epoch = (*max_epoch).max(frame.last_epoch);
            *frames_applied += 1;
            stats.frames_delivered += 1;
            stats.root_events_applied += frame.events();
            true
        })
    }

    /// The CCT cycles the root holds, measured from the deltas its
    /// accumulators applied, independently of the frames' self-reported
    /// ledger.
    pub(super) fn mass(&self) -> u64 {
        self.accs.iter().map(StageAccumulator::mass).sum()
    }

    pub(super) fn resident_events(&self) -> u64 {
        self.rx.iter().map(|x| x.parked_events()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::tests::{batches_for, header2, snapshots};
    use crate::federation::{FedNodeId, Federation, FederationConfig, LinkPolicy, LinkVerdict};
    use crate::link::WireFrame;
    use proptest::prelude::*;
    use std::cell::Cell;
    use whodunit_core::delta::{diff_dump, StreamStage};
    use whodunit_core::stitch::{
        DumpAtom, DumpCct, DumpContext, DumpCrosstalkPair, DumpCrosstalkWaiter, DumpNode, StageDump,
    };

    thread_local! {
        /// Leaf checkpoints [`assert_checkpoint_is_a_clone`] has
        /// verified on this test thread.
        static CHECKED: Cell<u64> = const { Cell::new(0) };
    }

    /// Field-by-field equality of two leaf states (accumulators by the
    /// dump they reconstruct plus their expected seq and running
    /// totals). Exhaustive, so a new `LeafState` or `Increment` field
    /// cannot escape the comparison.
    fn assert_same_state(got: &LeafState, want: &LeafState, what: &str) {
        let LeafState { accs, inc, up } = got;
        assert_eq!(accs.len(), want.accs.len(), "{what}: accs");
        for (si, (a, b)) in accs.iter().zip(&want.accs).enumerate() {
            assert_eq!(a.next_seq(), b.next_seq(), "{what}: accs[{si}] seq");
            assert_eq!(a.to_dump(), b.to_dump(), "{what}: accs[{si}] dump");
            let totals = |a: &StageAccumulator| (a.mass(), a.pair_wait());
            assert_eq!(totals(a), totals(b), "{what}: accs[{si}] totals");
        }
        assert_eq!(up, &want.up, "{what}: uplink");
        let Increment {
            pending,
            out_seq,
            events,
            interval,
            ledger,
        } = inc;
        let w = &want.inc;
        assert_eq!(pending, &w.pending, "{what}: pending");
        assert_eq!(out_seq, &w.out_seq, "{what}: out_seq");
        assert_eq!(*events, w.events, "{what}: events");
        assert_eq!(*interval, w.interval, "{what}: interval");
        assert_eq!(ledger, &w.ledger, "{what}: ledger");
    }

    /// The checkpoint oracle, called by [`LeafNode::checkpoint`] in
    /// every unit test of this crate: what the journal replay left in
    /// `ckpt` must be what cloning the live state — the old checkpoint,
    /// alive only here — produces, and the journal must be spent.
    pub(super) fn assert_checkpoint_is_a_clone(l: &LeafNode) {
        let checked = CHECKED.with(Cell::get);
        let what = format!("leaf {} checkpoint {checked}", l.leaf_id);
        assert_same_state(&l.ckpt, &l.st.clone(), &what);
        assert!(l.journal.is_empty(), "{what}: journal not drained");
        assert_eq!(l.journal_events, 0, "{what}: journal events");
        CHECKED.with(|c| c.set(c.get() + 1));
    }

    /// Drops, duplicates and delays messages on every link from a
    /// seeded stream.
    struct SeededLossy(u64);
    impl LinkPolicy for SeededLossy {
        fn verdict(&mut self, _link: u32, _now: u64) -> LinkVerdict {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            match self.0 % 16 {
                0 | 1 => LinkVerdict {
                    copies: 0,
                    delay: 0,
                },
                2 | 3 => LinkVerdict {
                    copies: 2,
                    delay: 0,
                },
                r @ 4..=7 => LinkVerdict {
                    copies: 1,
                    delay: r,
                },
                _ => LinkVerdict::default(),
            }
        }
    }

    #[test]
    fn a_regional_checkpoint_shares_parked_frames_and_keeps_them_whole() {
        let deltas = batches_for(0, 0, "front", 3);
        let mut up = Uplink::default();
        for b in &deltas {
            up.seal(SummaryFrame {
                last_epoch: b.epoch,
                deltas: b.deltas.clone(),
                ..SummaryFrame::default()
            });
        }
        let mut snd = Sender::restart(&up, 0);
        snd.checkpointed(&up);
        let mut stats = FederationStats::default();
        let sent = snd.pump(&up, 1, &mut stats);
        let mut r = RegionalNode::new(0, 1, vec![0], vec![0]);

        // Seq 0 is late: 1 and 2 park, and the checkpoint copies
        // pointers to them.
        assert_eq!(r.on_frame(0, &sent[2], &mut stats), None);
        assert_eq!(r.on_frame(0, &sent[1], &mut stats), None);
        r.checkpoint(&mut stats);
        let parked = |st: &RegionalState| st.rx[0].parked_frames().cloned().collect::<Vec<_>>();
        let (live, saved) = (parked(&r.st), parked(&r.ckpt));
        assert_eq!(live.len(), 2);
        assert!(live.iter().zip(&saved).all(|(a, b)| Arc::ptr_eq(a, b)));
        drop(live);

        // The hole arrives: the live state takes the parked frames, and
        // the checkpoint's copies stay as they were.
        let events: u64 = deltas.iter().map(|b| b.events()).sum();
        assert_eq!(r.on_frame(0, &sent[0], &mut stats), None);
        assert_eq!((r.st.rx[0].parked_len(), r.st.inc.events), (0, events));
        assert_eq!(parked(&r.ckpt), saved);

        // A crash before the next checkpoint re-parks them; the
        // retransmitted hole drains them into the same increment.
        r.recover(2);
        assert_eq!(r.st.rx[0].parked_len(), 2);
        assert_eq!(r.on_frame(0, &sent[0], &mut stats), None);
        assert_eq!((r.st.rx[0].parked_len(), r.st.inc.events), (0, events));
        assert_eq!(stats.frames_delivered, 6);
    }

    #[test]
    fn journalled_checkpoints_equal_full_clones_through_every_fault() {
        // Four stages, three leaves (leaf 0 owns two stages of one
        // tier), two regions; every link lossy.
        let stage = |proc: u32, name: &str| StreamStage {
            proc,
            stage_name: name.into(),
        };
        let hdr = StreamHeader {
            stages: vec![
                stage(0, "front"),
                stage(1, "db"),
                stage(2, "front"),
                stage(3, "db"),
            ],
        };
        let topo = vec![vec![vec![2, 0]], vec![vec![1], vec![3]]];
        let owned: [&[usize]; 3] = [&[0, 2], &[1], &[3]];
        let n = 64;
        let per_stage: Vec<Vec<EpochBatch>> = hdr
            .stages
            .iter()
            .enumerate()
            .map(|(gs, s)| batches_for(gs, s.proc, &s.stage_name, n))
            .collect();
        let batch_of = |leaf: usize, e: usize| EpochBatch {
            epoch: e as u64,
            seq: e as u64,
            end: (e as u64 + 1) * 100,
            deltas: owned[leaf]
                .iter()
                .map(|&gs| per_stage[gs][e].deltas[0].clone())
                .collect(),
        };
        let mut fed = Federation::new(
            &hdr,
            &topo,
            FederationConfig::default(),
            Box::new(SeededLossy(0x9e37_79b9_7f4a_7c15)),
        );
        // Both planted crashes fall between checkpoints (cadence 8).
        fed.crash(FedNodeId::Leaf(1), 21, Some(37));
        fed.crash(FedNodeId::Regional(1), 44, Some(52));
        CHECKED.with(|c| c.set(0));
        for e in 0..n {
            for leaf in 0..3 {
                let clean = batch_of(leaf, e);
                match (leaf, e) {
                    // A corrupt first delta: the second still applies,
                    // the next tick's catch-up repairs the first.
                    (0, 13) => {
                        let mut bad = clean.clone();
                        bad.deltas[0].checksum ^= 1;
                        fed.diverge(leaf);
                        assert!(fed.feed_truth(leaf, &clean));
                        fed.leaves[leaf].ingest(&bad, &mut fed.stats);
                    }
                    // A batch lost before the leaf: the next one gaps.
                    (2, 29) => {
                        fed.diverge(leaf);
                        assert!(fed.feed_truth(leaf, &clean));
                    }
                    _ => fed.feed(leaf, &clean),
                }
            }
            if e == 10 {
                // A crash between checkpoints (which, like a planted
                // one, first diverges the leaf) restores exactly the
                // last checkpoint and forgets the journal.
                fed.diverge(0);
                let l = &mut fed.leaves[0];
                assert!(!l.journal.is_empty() && l.journal_events > 0);
                let mut last = l.ckpt.clone();
                l.recover(fed.now);
                let g = last.inc.ledger.gauges.get_mut(&l.leaf_id);
                g.expect("leaf 0 has checkpointed").recoveries += 1;
                assert_same_state(&l.st, &last, "restored state");
                assert!(l.journal.is_empty() && l.journal_events == 0);
            }
            fed.tick();
        }
        let out = fed.finalize();
        // Eight checkpoint ticks in the fed epochs; leaf 1 is down for two.
        assert!(CHECKED.with(Cell::get) >= 8 + 6 + 8, "oracle ran");
        assert_eq!(out.stats.input_errors, 2, "both damaged inputs refused");
        assert!(out.stats.input_resyncs >= 4, "damage + recoveries resynced");
        assert_eq!(out.stats.recoveries, 2);
        assert!(out.stats.frames_lost > 0 && out.stats.dup_frames > 0);
        assert_eq!(out.coverage_ppm, 1_000_000);
        let dumps = hdr
            .stages
            .iter()
            .map(|s| snapshots(s.proc, &s.stage_name, n).pop().unwrap())
            .collect();
        let flat = whodunit_core::pipeline::analyze(dumps, Default::default());
        assert_eq!(out.output.report.fingerprint(), flat.fingerprint());
    }

    /// One child's link frames `0..`, each carrying `deltas` with
    /// their mass filed under leaf 0, as their first transmission puts
    /// them on the wire.
    fn sealed(frames: Vec<Vec<StageDelta>>) -> Vec<WireFrame> {
        let mut up = Uplink::default();
        for deltas in frames {
            let mass = deltas.iter().map(delta_mass).sum();
            up.seal(SummaryFrame {
                deltas,
                leaf_mass: vec![(0, mass)],
                ..SummaryFrame::default()
            });
        }
        let mut snd = Sender::restart(&up, 0);
        snd.checkpointed(&up);
        snd.pump(&up, 1, &mut FederationStats::default())
    }

    /// `d`, changed by `f` and sealed again.
    fn resealed(mut d: StageDelta, f: impl FnOnce(&mut StageDelta)) -> StageDelta {
        f(&mut d);
        d.seal();
        d
    }

    /// CCT cycles the accumulators hold.
    fn held_cycles(accs: &[StageAccumulator]) -> u64 {
        let nodes = |a: &StageAccumulator| {
            (0..a.context_count() as u32)
                .filter_map(|ctx| a.cct_nodes(ctx))
                .flatten()
                .map(|n| n.cycles)
                .sum::<u64>()
        };
        accs.iter().map(nodes).sum()
    }

    /// Two checksum-valid frames that cannot merge whole: one whose
    /// CCT baseline does not extend the pending increment, and one
    /// naming a stage twice. Each is refused whole, the link seq stays
    /// where it is, and the clean frame at that seq merges after it.
    #[test]
    fn a_regional_refuses_a_frame_that_does_not_merge_whole() {
        let clean: Vec<StageDelta> = batches_for(0, 0, "front", 3)
            .into_iter()
            .map(|mut b| b.deltas.remove(0))
            .collect();
        let skewed = resealed(clean[1].clone(), |d| d.ccts[0].nodes_before = 5);
        let bad = sealed(vec![
            vec![clean[0].clone()],
            vec![skewed],
            vec![clean[2].clone(), clean[2].clone()],
        ]);
        let good = sealed(clean.iter().map(|d| vec![d.clone()]).collect());
        let mut r = RegionalNode::new(0, 1, vec![0], vec![0]);
        let mut stats = FederationStats::default();
        r.on_frame(0, &bad[0], &mut stats);
        for (i, frame) in bad.iter().enumerate().skip(1) {
            let merged = r.st.inc.pending.clone();
            for _ in 0..2 {
                r.on_frame(0, frame, &mut stats);
            }
            assert_eq!(stats.rejected_frames, 2 * i as u64, "frame {i} refused");
            assert_eq!(stats.dup_frames, 0, "frame {i}: the link seq moved");
            assert_eq!(r.st.inc.pending, merged, "frame {i} merged in part");
            assert_eq!(r.st.in_seq[0], i as u64);
            r.on_frame(0, &good[i], &mut stats);
            assert_eq!(r.st.in_seq[0], i as u64 + 1);
        }
        assert_eq!(stats.frames_delivered, 3);
        let mut want = clean[0].clone();
        for d in &clean[1..] {
            merge_stage_delta(&mut want, d).unwrap();
        }
        assert_eq!(r.st.inc.pending[&0], want);
    }

    /// A delta that repeats a crosstalk pair or waiter, or lists growth
    /// rows out of node order, is refused whole at the regional. The
    /// wire decoder is the first door it meets, so the frame counts as
    /// a decode error; the pending increment and the link seq stay
    /// where they are, and the clean frame at that seq merges after it.
    #[test]
    fn a_regional_refuses_a_frame_with_a_non_canonical_delta() {
        let clean: Vec<StageDelta> = batches_for(0, 0, "front", 2)
            .into_iter()
            .map(|mut b| b.deltas.remove(0))
            .collect();
        let pair = DumpCrosstalkPair {
            waiter: 0,
            holder: 0,
            count: 1,
            total_wait: 5,
        };
        let waiter = DumpCrosstalkWaiter {
            waiter: 0,
            count: 1,
            total_wait: 5,
        };
        let damaged = [
            resealed(clean[1].clone(), |d| d.pairs = vec![pair, pair]),
            resealed(clean[1].clone(), |d| d.waiters = vec![waiter, waiter]),
            resealed(clean[1].clone(), |d| {
                let g = d.ccts[0].grown[0];
                d.ccts[0].grown.push(g);
            }),
        ];
        let good = sealed(clean.iter().map(|d| vec![d.clone()]).collect());
        for d in damaged {
            let what = format!("{d:?}");
            let bad = sealed(vec![vec![clean[0].clone()], vec![d]]);
            let mut r = RegionalNode::new(0, 1, vec![0], vec![0]);
            let mut stats = FederationStats::default();
            r.on_frame(0, &bad[0], &mut stats);
            let merged = r.st.inc.pending.clone();
            r.on_frame(0, &bad[1], &mut stats);
            let counts = (
                stats.wire_decode_errors,
                stats.rejected_frames,
                stats.frames_delivered,
            );
            assert_eq!(counts, (1, 0, 1), "{what}");
            assert_eq!(r.st.inc.pending, merged, "{what}");
            assert_eq!(r.st.in_seq[0], 1, "{what}");
            r.on_frame(0, &good[1], &mut stats);
            assert_eq!((stats.frames_delivered, r.st.in_seq[0]), (2, 2), "{what}");
        }
    }

    /// A delta whose stored checksum its content does not imply passes
    /// the frame's end-to-end check, which folds in the stored value,
    /// so only the receiver's own comparison can catch it. The regional
    /// refuses the frame whole, as the root does, instead of merging
    /// the delta and sealing the damage away at its next flush; the
    /// clean frame at that seq is taken after it.
    #[test]
    fn a_stored_bad_delta_checksum_is_refused_at_the_regional_and_the_root() {
        let clean = batches_for(0, 0, "front", 1).remove(0).deltas.remove(0);
        let bytes = |d: StageDelta| {
            let frame = SummaryFrame {
                leaf_mass: vec![(0, delta_mass(&d))],
                deltas: vec![d],
                ..SummaryFrame::default()
            };
            whodunit_core::wire::encode_summary(&frame.seal())
        };
        let mut damaged = clean.clone();
        damaged.checksum ^= 1;
        let (bad, good) = (bytes(damaged), bytes(clean));
        let mut r = RegionalNode::new(0, 1, vec![0], vec![0]);
        let mut root = RootNode::new(&header2(), 1);
        let (mut rs, mut ts) = (FederationStats::default(), FederationStats::default());
        r.on_frame(0, &bad, &mut rs);
        root.on_frame(0, &bad, &mut ts);
        for s in [&rs, &ts] {
            let counts = (s.rejected_frames, s.corrupt_frames, s.frames_delivered);
            assert_eq!(counts, (1, 0, 0), "{s:?}");
        }
        assert_eq!((r.st.inc.events, r.st.in_seq[0]), (0, 0));
        assert_eq!(root.mass(), 0);
        r.on_frame(0, &good, &mut rs);
        root.on_frame(0, &good, &mut ts);
        assert_eq!((rs.frames_delivered, ts.frames_delivered), (1, 1));
        assert_eq!(r.st.in_seq[0], 1);
    }

    /// A frame the root refuses leaves no trace in its accounting: not
    /// in the ledger coverage is computed from, not in the applied
    /// mass the oracle checks the ledger against, not in the delivered
    /// frames, and not in any accumulator, even where only its second
    /// delta is bad.
    #[test]
    fn a_refused_frame_counts_nowhere_at_the_root() {
        let front = batches_for(0, 0, "front", 1).remove(0).deltas.remove(0);
        let db = batches_for(1, 1, "db", 1).remove(0).deltas.remove(0);
        let unknown_ctx = |d: &StageDelta| resealed(d.clone(), |d| d.ccts[0].ctx = 1);
        let outside = resealed(db.clone(), |d| d.stage = 2);
        for bad in [
            vec![unknown_ctx(&front)],
            vec![outside],
            vec![front.clone(), unknown_ctx(&db)],
        ] {
            let what = format!("{bad:?}");
            let (bad, good) = (
                sealed(vec![bad]),
                sealed(vec![vec![front.clone(), db.clone()]]),
            );
            let mut root = RootNode::new(&header2(), 1);
            let mut stats = FederationStats::default();
            root.on_frame(0, &bad[0], &mut stats);
            assert_eq!(root.ledger, Ledger::default(), "{what}");
            assert_eq!(root.mass(), 0, "{what}");
            assert_eq!(stats.frames_delivered, 0, "{what}");
            assert_eq!(stats.rejected_frames, 1, "{what}");
            assert!(root.accs.iter().all(|a| a.next_seq() == 0), "{what}");
            // The clean frame at the same link seq is applied in full.
            root.on_frame(0, &good[0], &mut stats);
            assert_eq!(root.ledger.mass[&0], 200, "{what}");
            assert_eq!(root.mass(), 200, "{what}");
            assert_eq!((stats.frames_delivered, root.frames_applied), (1, 1));
        }
    }

    /// Snapshot `e` of a stage whose contexts arrive one per epoch up
    /// to three: each has a root that grows every epoch and gains one
    /// child node per epoch it has lived, so a delta carries several
    /// CCTs, new nodes and growth.
    fn growing_dump(proc: u32, e: u32) -> StageDump {
        let ctxs = (e + 1).min(3);
        let node = |parent: Option<u32>, cycles| DumpNode {
            frame: parent.map(|_| 1),
            parent,
            samples: 1,
            cycles,
            calls: 1,
        };
        StageDump {
            proc,
            stage_name: "svc".into(),
            frames: vec!["main".into(), "work".into()],
            contexts: (0..ctxs)
                .map(|k| DumpContext {
                    atoms: vec![DumpAtom::Frame(k % 2)].into(),
                })
                .collect(),
            ccts: (0..ctxs)
                .map(|k| DumpCct {
                    ctx: k,
                    nodes: std::iter::once(node(None, u64::from((e + 1) * (k + 1))))
                        .chain((k..e).map(|_| node(Some(0), 7)))
                        .collect(),
                })
                .collect(),
            ..StageDump::default()
        }
    }

    /// One damage applied to a frame of deltas (`param` picks the
    /// delta and the size of the change); the touched delta is sealed
    /// again, so only the receivers' own checks can catch it.
    fn damage(frame: &mut Vec<StageDelta>, kind: u8, param: usize) {
        if frame.is_empty() {
            return;
        }
        let at = param % frame.len();
        let mut d = frame[at].clone();
        let bump = param as u32 + 1;
        match kind {
            0 => d.seq ^= 1 + (param as u64 & 1),
            1 => d.stage = (d.stage + 1 + param) % 5,
            2 => match d.ccts.get_mut(param % 2) {
                Some(c) if param == 7 => c.nodes_before = u32::MAX,
                Some(c) => c.nodes_before = c.nodes_before.wrapping_add(bump) % 9,
                None => return,
            },
            3 if d.ccts.len() >= 2 => d.ccts.reverse(),
            3 => match d.ccts.first().cloned() {
                Some(c) => d.ccts.push(c),
                None => return,
            },
            4 => {
                let mut twin = d.clone();
                twin.seq += param as u64 & 1;
                twin.seal();
                frame.push(twin);
            }
            _ => match d.ccts.iter_mut().find(|c| !c.grown.is_empty()) {
                Some(c) => c.grown[0].0 += bump,
                None => match d.ccts.first_mut() {
                    Some(c) => c.grown.push((c.nodes_before + bump % 3, 0, 5, 0)),
                    None => return,
                },
            },
        }
        d.seal();
        frame[at] = d;
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Checksum-valid frames cut from a clean three-stage stream and
        /// damaged (seq, stage, CCT baseline, ctx order, a stage named
        /// twice, grown index) reach a regional and the root on one
        /// link, each followed by the clean frame at its seq if it was
        /// refused; the regional's increment is flushed to a second root
        /// every two frames. Nothing panics, and after every frame each
        /// root's ledger holds exactly the CCT cycles its accumulators
        /// hold: a frame is applied whole, or its mass is nowhere.
        #[test]
        fn receivers_apply_damaged_frames_whole_or_not_at_all(
            damages in proptest::collection::vec((0usize..6, 0u8..6, 0usize..8), 0..4)
        ) {
            let n = 6u32;
            let header = StreamHeader {
                stages: (0..3)
                    .map(|proc| StreamStage { proc, stage_name: "svc".into() })
                    .collect(),
            };
            let clean: Vec<Vec<StageDelta>> = (0..n)
                .map(|e| {
                    (0..3u32)
                        .map(|gs| {
                            let prev = e.checked_sub(1).map(|p| growing_dump(gs, p));
                            let cur = growing_dump(gs, e);
                            diff_dump(gs as usize, u64::from(e), prev.as_ref(), &cur)
                                .expect("every epoch grows")
                        })
                        .collect()
                })
                .collect();
            let mut bad = clean.clone();
            for &(fi, kind, param) in &damages {
                damage(&mut bad[fi], kind, param);
            }
            let (bad, clean) = (sealed(bad), sealed(clean));
            let mut r = RegionalNode::new(0, 1, vec![0], vec![0, 1, 2]);
            let (mut root, mut root2) = (RootNode::new(&header, 1), RootNode::new(&header, 1));
            let mut rs = FederationStats::default();
            let (mut s1, mut s2) = (rs.clone(), rs.clone());
            let ledger_holds = |root: &RootNode| {
                let held = held_cycles(&root.accs);
                root.ledger.mass.values().sum::<u64>() == held && root.mass() == held
            };
            for (i, (b, c)) in bad.iter().zip(&clean).enumerate() {
                let now = i as u64 + 2;
                let delivered = rs.frames_delivered;
                r.on_frame(0, b, &mut rs);
                if rs.frames_delivered == delivered {
                    r.on_frame(0, c, &mut rs);
                }
                let delivered = s1.frames_delivered;
                root.on_frame(0, b, &mut s1);
                if s1.frames_delivered == delivered {
                    root.on_frame(0, c, &mut s1);
                }
                prop_assert!(ledger_holds(&root), "root after frame {}", i);
                if i % 2 == 1 {
                    r.st.inc.flush(r.src, &mut r.st.up, &mut rs);
                    r.checkpoint(&mut rs);
                    for bytes in r.snd.pump(&r.st.up, now, &mut rs) {
                        if let Some(upto) = root2.on_frame(0, &bytes, &mut s2) {
                            r.snd.on_ack(&mut r.st.up, upto, now);
                        }
                        prop_assert!(ledger_holds(&root2), "second root after frame {}", i);
                    }
                }
            }
        }
    }
}
