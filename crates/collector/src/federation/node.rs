//! The federation's nodes: the [`Increment`] every sender ships, the
//! leaf with its redo journal, the regional aggregator and the root.
//! The [`Federation`](super::Federation) harness owns them and carries
//! their frames.

use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;
use whodunit_core::delta::{
    DeltaError, EpochBatch, ResyncSource, StageAccumulator, StageDelta, StreamHeader,
};
use whodunit_core::sketch::QuantileSketch;
use whodunit_core::summary::{
    delta_mass, merge_stage_delta, seal_delta, LeafGauges, SummaryFrame, TierSketch,
};

use super::FederationStats;
use crate::link::{AckMode, RxState, Sender, Uplink};
use crate::Collector;

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
/// seals the frame for both.
#[derive(Clone, Default)]
pub(super) struct Increment {
    /// Merged not-yet-flushed delta per global stage.
    pending: BTreeMap<usize, StageDelta>,
    /// Next outgoing delta seq per global stage.
    out_seq: BTreeMap<usize, u64>,
    /// Change events in the pending deltas.
    events: u64,
    /// Input epoch interval the pending deltas cover.
    pub(super) interval: Option<(u64, u64)>,
    /// Latest input virtual time seen.
    end: u64,
    /// Per-tier interval cost digests.
    sketches: BTreeMap<String, QuantileSketch>,
    /// Interval mass and latest gauges per originating leaf.
    pub(super) ledger: Ledger,
}

impl Increment {
    /// Merges the next in-order increment of `d.stage` into the pending
    /// delta of that stage. The interval's first delta of a stage *is*
    /// its pending delta — merged into the empty delta, its content
    /// comes out unchanged, and [`Increment::flush`] restamps its seq
    /// and checksum — so it moves in, or is cloned once if borrowed.
    fn absorb_delta(&mut self, d: Cow<'_, StageDelta>) {
        self.events += d.events();
        match self.pending.entry(d.stage) {
            Entry::Vacant(e) => {
                e.insert(d.into_owned());
            }
            Entry::Occupied(e) => merge_stage_delta(e.into_mut(), &d)
                .expect("contiguous same-stage increments always merge"),
        }
    }

    /// Widens the pending interval to input epochs `first..=last`,
    /// ending at virtual time `end`.
    fn cover(&mut self, first: u64, last: u64, end: u64) {
        self.interval = Some(match self.interval {
            None => (first, last),
            Some((a, b)) => (a.min(first), b.max(last)),
        });
        self.end = self.end.max(end);
    }

    /// The interval digest of `tier`.
    fn sketch(&mut self, tier: &str) -> &mut QuantileSketch {
        if !self.sketches.contains_key(tier) {
            self.sketches.insert(tier.to_owned(), QuantileSketch::new());
        }
        self.sketches.get_mut(tier).expect("just inserted")
    }

    /// Folds a child frame's freight — interval, tier digests, per-leaf
    /// mass and gauges — into this increment.
    fn fold_freight(&mut self, f: &SummaryFrame) {
        self.cover(f.first_epoch, f.last_epoch, f.end);
        for ts in &f.sketches {
            self.sketch(&ts.tier)
                .merge(&QuantileSketch::from_wire(ts.max, &ts.buckets));
        }
        self.ledger.fold(f);
    }

    /// Seals everything merged since the last flush into one frame from
    /// `src` on `up`. A full spool stalls the flush (the increment keeps
    /// merging: lag, not loss); an interval with no content ships
    /// nothing. A leaf's own gauges, filed under `src`, report the spool
    /// lag as of this flush.
    pub(super) fn flush(&mut self, src: u32, up: &mut Uplink, stats: &mut FederationStats) {
        if self.interval.is_none() {
            return;
        }
        if up.is_full() {
            stats.spool_stalls += 1;
            return;
        }
        let (first_epoch, last_epoch) = self.interval.take().expect("checked above");
        self.events = 0;
        let mut deltas = Vec::new();
        for (gs, d) in std::mem::take(&mut self.pending) {
            if d.is_empty() {
                continue;
            }
            let seq = self.out_seq.entry(gs).or_insert(0);
            deltas.push(seal_delta(d, *seq));
            *seq += 1;
        }
        if deltas.is_empty() && self.ledger.mass.values().sum::<u64>() == 0 {
            return;
        }
        if let Some(g) = self.ledger.gauges.get_mut(&src) {
            g.lag_frames = up.spool_len() as u64;
        }
        up.seal(SummaryFrame {
            src,
            seq: 0,
            first_epoch,
            last_epoch,
            end: self.end,
            deltas,
            sketches: std::mem::take(&mut self.sketches)
                .iter()
                .map(|(t, sk)| TierSketch::of(t, sk))
                .collect(),
            leaf_mass: std::mem::take(&mut self.ledger.mass).into_iter().collect(),
            gauges: self.ledger.gauges.iter().map(|(&l, &g)| (l, g)).collect(),
            checksum: 0,
        });
    }
}

/// One logged mutation of a leaf's input accumulators: the unit of the
/// leaf's redo journal. [`Redo::run`] is the only code that mutates a
/// leaf accumulator — on the live state when the op is logged, and on
/// the checkpoint copy when [`LeafNode::checkpoint`] replays the
/// journal — so both copies take every op through the same
/// [`StageAccumulator::apply`] checks.
enum Redo {
    /// An input (or catch-up) delta.
    Apply(StageDelta),
    /// A resync fast-forwarded the expected input seq.
    Seek(u64),
}

impl Redo {
    fn run(&self, acc: &mut StageAccumulator) -> Result<(), DeltaError> {
        match self {
            Redo::Apply(d) => acc.apply(d),
            Redo::Seek(next) => {
                acc.set_next_seq(*next);
                Ok(())
            }
        }
    }

    fn events(&self) -> u64 {
        match self {
            Redo::Apply(d) => d.events(),
            Redo::Seek(_) => 0,
        }
    }
}

/// Durable (checkpointed) state of one leaf.
#[derive(Clone)]
pub(super) struct LeafState {
    /// Input accumulators, parallel to the owned stage list. Needed to
    /// verify input deltas and to diff against resync snapshots. The
    /// only cumulative part of the state: a checkpoint advances its
    /// copy by replaying the journal, never by cloning.
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
    /// Tier (stage) names parallel to `stages`.
    names: Vec<String>,
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
            inc: Increment::default(),
            up: Uplink::default(),
        };
        let (st, ckpt) = (empty_state(), empty_state());
        LeafNode {
            leaf_id,
            region,
            child_slot,
            names: stages
                .iter()
                .map(|&gs| header.stages[gs].stage_name.clone())
                .collect(),
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

    /// Runs `op` on `st.accs[si]` and logs it. The entry is pushed
    /// before the op runs and popped if the op refuses, so not even an
    /// op that unwinds leaves `st.accs` ahead of the journal.
    fn log(&mut self, si: usize, op: Redo) -> Result<(), DeltaError> {
        self.journal.push((si, op));
        let (_, op) = self.journal.last().expect("just pushed");
        let done = op.run(&mut self.st.accs[si]);
        match done {
            Ok(()) => self.journal_events += op.events(),
            Err(_) => drop(self.journal.pop()),
        }
        done
    }

    /// Folds a delta the accumulators took into the outgoing increment:
    /// its mass, its tier's digest and the pending merge.
    fn absorb(&mut self, si: usize, d: Cow<'_, StageDelta>) {
        let m = delta_mass(&d);
        self.gauges().mass += m;
        let inc = &mut self.st.inc;
        *inc.ledger.mass.entry(self.leaf_id).or_insert(0) += m;
        inc.sketch(&self.names[si]).record(m);
        inc.absorb_delta(d);
    }

    /// Whether this leaf owns global stage `gs`.
    pub(super) fn owns(&self, gs: usize) -> bool {
        self.stages.binary_search(&gs).is_ok()
    }

    pub(super) fn ingest(&mut self, batch: &EpochBatch, stats: &mut FederationStats) {
        for d in &batch.deltas {
            let Ok(si) = self.stages.binary_search(&d.stage) else {
                stats.foreign_deltas += 1;
                continue;
            };
            if self.log(si, Redo::Apply(d.clone())).is_err() {
                stats.input_errors += 1;
                self.need_resync = true;
                continue;
            }
            self.absorb(si, Cow::Borrowed(d));
        }
        let g = self.gauges();
        g.events += batch.events();
        g.last_epoch = g.last_epoch.max(batch.epoch);
        self.st.inc.cover(batch.epoch, batch.epoch, batch.end);
    }

    /// Catches the input side up to the emitter mirror: per owned
    /// stage, diff the accumulator against the snapshot and fold the
    /// catch-up delta through the normal merge path.
    pub(super) fn catchup(
        &mut self,
        mirror: &dyn ResyncSource,
        up_to_epoch: u64,
        up_to_end: u64,
        stats: &mut FederationStats,
    ) {
        let mut gained = false;
        for si in 0..self.stages.len() {
            let gs = self.stages[si];
            let Some((dump, upto)) = mirror.snapshot(gs) else {
                continue;
            };
            let cd = self.st.accs[si]
                .catchup_delta(gs, &dump)
                .expect("the mirror replays this leaf's own clean input");
            if let Some(cd) = cd {
                self.log(si, Redo::Apply(cd.clone()))
                    .expect("catch-up delta applies");
                self.gauges().events += cd.events();
                self.absorb(si, Cow::Owned(cd));
                gained = true;
            }
            self.log(si, Redo::Seek(upto)).expect("seek cannot refuse");
        }
        if gained {
            self.st.inc.cover(up_to_epoch, up_to_epoch, up_to_end);
        }
        let g = self.gauges();
        g.last_epoch = g.last_epoch.max(up_to_epoch);
        self.need_resync = false;
        stats.input_resyncs += 1;
    }

    /// Brings `ckpt` up to `st`: replays the journal into `ckpt.accs`
    /// and copies the rest, which is small — the un-flushed increment
    /// (drained sketches, counters) and a spool of shared bytes.
    pub(super) fn checkpoint(&mut self, stats: &mut FederationStats) {
        self.gauges().checkpoints += 1;
        for (si, op) in self.journal.drain(..) {
            op.run(&mut self.ckpt.accs[si])
                .expect("an op the live state took replays onto its checkpoint");
        }
        self.journal_events = 0;
        // Exhaustive on purpose: a new `LeafState` field must decide
        // here how it reaches the checkpoint.
        let LeafState { accs: _, inc, up } = &self.st;
        self.ckpt.inc = inc.clone();
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
#[derive(Clone)]
pub(super) struct RegionalState {
    /// The outgoing increment, merged from the children's frames.
    pub(super) inc: Increment,
    /// Sender half of the uplink to the root.
    pub(super) up: Uplink,
    /// Per-child receive state.
    pub(super) rx: Vec<RxState>,
    /// Next expected incoming per-stage delta seq.
    in_seq: BTreeMap<usize, u64>,
}

pub(super) struct RegionalNode {
    pub(super) region_id: usize,
    pub(super) src: u32,
    /// Leaf ids of the children, by slot.
    pub(super) children: Vec<u32>,
    pub(super) st: RegionalState,
    ckpt: RegionalState,
    pub(super) snd: Sender,
    pub(super) alive: bool,
}

impl RegionalNode {
    /// Region `region_id`, sending as `src`, over the leaves `children`.
    pub(super) fn new(region_id: usize, src: u32, children: Vec<u32>) -> RegionalNode {
        let st = RegionalState {
            inc: Increment::default(),
            up: Uplink::default(),
            rx: children.iter().map(|_| RxState::default()).collect(),
            in_seq: BTreeMap::new(),
        };
        RegionalNode {
            region_id,
            src,
            children,
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
        let RegionalState {
            inc, rx, in_seq, ..
        } = &mut self.st;
        rx[slot].receive(bytes, AckMode::OnCheckpoint, stats, |f, stats| {
            // Per-stage contiguity check first, so a bad frame is
            // rejected whole (and the per-link seq does not advance —
            // the sender retries until the deadline marks the subtree
            // degraded).
            let next = |d: &StageDelta| in_seq.get(&d.stage).copied().unwrap_or(0);
            if f.deltas.iter().any(|d| d.seq != next(d)) {
                stats.rejected_frames += 1;
                return false;
            }
            let mut f = Arc::unwrap_or_clone(f);
            for d in std::mem::take(&mut f.deltas) {
                *in_seq.entry(d.stage).or_insert(0) += 1;
                inc.absorb_delta(Cow::Owned(d));
            }
            inc.fold_freight(&f);
            stats.frames_delivered += 1;
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
        self.ckpt = self.st.clone();
        self.snd.checkpointed(&self.st.up);
        stats.checkpoints += 1;
        acks
    }

    pub(super) fn recover(&mut self, now: u64) {
        self.st = self.ckpt.clone();
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
    pub(super) collector: Collector,
    batch_seq: u64,
    /// Per-regional-link receive state.
    pub(super) rx: Vec<RxState>,
    /// Mass delivered since the start and latest gauges, per
    /// originating leaf — the frames' own ledger.
    pub(super) ledger: Ledger,
    /// Mass the root actually applied, measured from delta content —
    /// independently of the frames' self-reported ledger.
    pub(super) applied_mass: u64,
    pub(super) max_epoch: u64,
}

impl RootNode {
    /// The root over `collector`, receiving from `regions` regionals.
    pub(super) fn new(collector: Collector, regions: usize) -> RootNode {
        RootNode {
            collector,
            batch_seq: 0,
            rx: vec![RxState::default(); regions],
            ledger: Ledger::default(),
            applied_mass: 0,
            max_epoch: 0,
        }
    }

    /// The root acks immediately on apply: it is the durable terminus
    /// of the tree (root crashes are out of scope).
    pub(super) fn on_frame(
        &mut self,
        slot: usize,
        bytes: &[u8],
        stats: &mut FederationStats,
    ) -> Option<u64> {
        let RootNode {
            collector,
            batch_seq,
            rx,
            ledger,
            applied_mass,
            max_epoch,
        } = self;
        rx[slot].receive(bytes, AckMode::Immediate, stats, |f, stats| {
            // The root never checkpoints its receive state, so nothing
            // else holds the frame and this moves it.
            let f = Arc::unwrap_or_clone(f);
            *applied_mass += f.deltas.iter().map(delta_mass).sum::<u64>();
            ledger.fold(&f);
            *max_epoch = (*max_epoch).max(f.last_epoch);
            stats.frames_delivered += 1;
            stats.root_events_applied += f.events();
            collector.enqueue(EpochBatch {
                epoch: f.last_epoch,
                seq: *batch_seq,
                end: f.end,
                deltas: f.deltas,
            });
            *batch_seq += 1;
            collector.drain();
            true
        })
    }

    pub(super) fn resident_events(&self) -> u64 {
        self.rx.iter().map(|x| x.parked_events()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::tests::{batches_for, snapshots};
    use crate::federation::{FedNodeId, Federation, FederationConfig, LinkPolicy, LinkVerdict};
    use std::cell::Cell;
    use whodunit_core::delta::StreamStage;

    thread_local! {
        /// Leaf checkpoints [`assert_checkpoint_is_a_clone`] has
        /// verified on this test thread.
        static CHECKED: Cell<u64> = const { Cell::new(0) };
    }

    /// Field-by-field equality of two leaf states (accumulators by the
    /// dump they reconstruct plus their expected seq, sketches by their
    /// wire form). Exhaustive, so a new `LeafState` or `Increment` field
    /// cannot escape the comparison.
    fn assert_same_state(got: &LeafState, want: &LeafState, what: &str) {
        let LeafState { accs, inc, up } = got;
        assert_eq!(accs.len(), want.accs.len(), "{what}: accs");
        for (si, (a, b)) in accs.iter().zip(&want.accs).enumerate() {
            assert_eq!(a.next_seq(), b.next_seq(), "{what}: accs[{si}] seq");
            assert_eq!(a.to_dump(), b.to_dump(), "{what}: accs[{si}] dump");
        }
        assert_eq!(up, &want.up, "{what}: uplink");
        let Increment {
            pending,
            out_seq,
            events,
            interval,
            end,
            sketches,
            ledger,
        } = inc;
        let w = &want.inc;
        assert_eq!(pending, &w.pending, "{what}: pending");
        assert_eq!(out_seq, &w.out_seq, "{what}: out_seq");
        assert_eq!(*events, w.events, "{what}: events");
        assert_eq!(*interval, w.interval, "{what}: interval");
        assert_eq!(*end, w.end, "{what}: end");
        assert!(
            sketches.keys().eq(w.sketches.keys()),
            "{what}: sketch tiers"
        );
        for ((tier, a), b) in sketches.iter().zip(w.sketches.values()) {
            assert_eq!(a.count(), b.count(), "{what}: sketch {tier} count");
            assert_eq!(a.to_wire(), b.to_wire(), "{what}: sketch {tier}");
        }
        assert_eq!(ledger, &w.ledger, "{what}: ledger");
    }

    /// The checkpoint oracle, called by [`LeafNode::checkpoint`] in
    /// every unit test of this crate: what the journal replay left in
    /// `ckpt` must be what cloning the live state — the old checkpoint,
    /// alive only here — produces, and the journal must be spent.
    pub(super) fn assert_checkpoint_is_a_clone(l: &LeafNode) {
        let checkpoints = l.st.inc.ledger.gauges[&l.leaf_id].checkpoints;
        let what = format!("leaf {} checkpoint {checkpoints}", l.leaf_id);
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
                0 | 1 => LinkVerdict { copies: 0, delay: 0 },
                2 | 3 => LinkVerdict { copies: 2, delay: 0 },
                r @ 4..=7 => LinkVerdict { copies: 1, delay: r },
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
                src: 0,
                seq: 0,
                first_epoch: b.epoch,
                last_epoch: b.epoch,
                end: b.end,
                deltas: b.deltas.clone(),
                sketches: Vec::new(),
                leaf_mass: Vec::new(),
                gauges: Vec::new(),
                checksum: 0,
            });
        }
        let mut snd = Sender::restart(&up, 0);
        snd.checkpointed(&up);
        let mut stats = FederationStats::default();
        let sent = snd.pump(&up, 1, &mut stats);
        let mut r = RegionalNode::new(0, 1, vec![0]);

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
                        assert!(fed.feed_truth(leaf, &clean));
                        fed.leaves[leaf].ingest(&bad, &mut fed.stats);
                    }
                    // A batch lost before the leaf: the next one gaps.
                    (2, 29) => assert!(fed.feed_truth(leaf, &clean)),
                    _ => fed.feed(leaf, &clean),
                }
            }
            if e == 10 {
                // A crash between checkpoints restores exactly the last
                // checkpoint and forgets the journal.
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
}
