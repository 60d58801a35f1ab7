//! Fault-tolerant collector federation: leaf → regional → global
//! aggregation of streaming profile deltas.
//!
//! A flat [`Collector`] ingests every stage of a fleet directly; at
//! planet scale that is one process holding every accumulator and every
//! uplink. The federation splits the fleet across many *leaf* nodes
//! (one per rack/region slice of the stage space), folds their
//! compacted [`SummaryFrame`]s through *regional* aggregators, and
//! applies the result at a single *global root* — an ordinary
//! [`Collector`] over the full fleet header, so the clean-run final
//! report is **byte-identical** to the flat batch pipeline (the
//! differential suite holds the fingerprint lineage to it).
//!
//! The robustness contract, per level:
//!
//! - **Lossy uplinks.** Frames and acks travel through a [`LinkPolicy`]
//!   (drop / duplicate / delay / partition — the simulator's seeded
//!   `FaultPlan` adapts onto it). Receivers verify frame checksums,
//!   drop duplicates by per-link sequence number, park bounded
//!   reordered frames, and ack cumulatively; senders retransmit
//!   go-back-N from a bounded spool with exponential backoff. The
//!   protocol lives once, in [`crate::link`]; a link only ever holds
//!   sealed wire frames, encoded once when the node flushes.
//! - **Write-ahead rule.** A node only *transmits* frames its latest
//!   checkpoint covers, and an aggregator only *acks* receptions its
//!   own checkpoint covers (the root acks immediately — it is the
//!   durable terminus). Together these make crash recovery exactly-once:
//!   a recovered node can never re-emit a transmitted sequence number
//!   with different content, and an acked frame is never lost by a
//!   receiver crash.
//! - **Crash recovery.** Leaves and regionals crash at virtual time and
//!   recover from their periodic checkpoint. The pending increment,
//!   spool and counters are interval-sized and a checkpoint copies
//!   them; a leaf's cumulative input accumulators are not, and its
//!   checkpoint advances them by replaying the redo journal of ops
//!   applied since the previous one (`Redo`, `LeafNode::log`) instead
//!   of copying them. A recovered node replays the spool tail verbatim
//!   (receivers dedup), and — for leaves — catches its *input* up
//!   through the PR 6 [`ResyncSource`] shape: a snapshot diff folded
//!   through the normal merge path, so no profile mass is lost.
//! - **Honest degradation.** If a subtree stays unrecoverable past the
//!   finalize deadline, the root finalizes anyway: the missing mass is
//!   attributed to explicit per-subtree degraded markers and a coverage
//!   fraction, never silently dropped. The
//!   [`whodunit_core::oracle::check_federation`] oracle cross-checks
//!   the ledger against the root's actually-applied mass.

use std::collections::BTreeMap;
use whodunit_core::delta::{
    DeltaError, EpochBatch, RecordedResync, ResyncSource, StageAccumulator, StageDelta,
    StreamHeader,
};
use whodunit_core::oracle::{FederationEvidence, SubtreeMass};
use whodunit_core::sketch::QuantileSketch;
use whodunit_core::summary::{
    delta_mass, empty_delta, merge_stage_delta, seal_delta, LeafGauges, SummaryFrame, TierSketch,
};
use whodunit_report::live::{FedNodeView, FedTopologyView};

use crate::link::{AckMode, RxState, Sender, Uplink, WireFrame};
use crate::{Collector, CollectorConfig, CollectorOutput};

/// Fate of one message offered to an upstream link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkVerdict {
    /// Delivery copies: 0 = lost, 1 = normal, 2 = duplicated.
    pub copies: u32,
    /// Extra delivery delay in federation ticks.
    pub delay: u64,
}

impl Default for LinkVerdict {
    fn default() -> Self {
        LinkVerdict { copies: 1, delay: 0 }
    }
}

/// Decides the fate of every message on every federation link.
///
/// The collector crate knows nothing about the simulator; the apps
/// crate adapts the seeded `FaultPlan` (drop/dup/delay/partition) onto
/// this trait. Leaf uplinks use the leaf index as link id; regional
/// uplinks use `leaf_count + region index`. Both directions of a link
/// (frames up, acks down) share its id.
pub trait LinkPolicy {
    /// The fate of one message sent on `link` at federation tick `now`.
    fn verdict(&mut self, link: u32, now: u64) -> LinkVerdict;
}

/// The fault-free policy: every message delivered once, next tick.
#[derive(Clone, Copy, Debug, Default)]
pub struct CleanLinks;

impl LinkPolicy for CleanLinks {
    fn verdict(&mut self, _link: u32, _now: u64) -> LinkVerdict {
        LinkVerdict::default()
    }
}

/// Tuning knobs of the federation.
#[derive(Clone, Debug)]
pub struct FederationConfig {
    /// Ticks between frame flushes at every node (minimum 1).
    pub flush_every: u64,
    /// Ticks between checkpoints at every node (minimum 1). Frames
    /// spooled since the last checkpoint are not transmittable, and
    /// aggregators only ack up to their checkpoint horizon, so this is
    /// also the ack cadence.
    pub checkpoint_every: u64,
    /// Drain ticks [`Federation::finalize`] grants before declaring
    /// still-missing subtrees degraded.
    pub deadline_ticks: u64,
    /// Configuration of the root's flat [`Collector`].
    pub collector: CollectorConfig,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            flush_every: 4,
            checkpoint_every: 8,
            deadline_ticks: 4096,
            collector: CollectorConfig::default(),
        }
    }
}

/// A federation node a planned crash can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FedNodeId {
    /// Leaf by index.
    Leaf(usize),
    /// Regional aggregator by index.
    Regional(usize),
}

/// One planted crash (and optional recovery) at virtual time.
#[derive(Clone, Debug)]
struct PlannedCrash {
    node: FedNodeId,
    at: u64,
    recover_at: Option<u64>,
    fired: bool,
    recovered: bool,
}

/// The lifecycle of one planted leaf crash, as observed by the root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// Crashed leaf index.
    pub leaf: usize,
    /// Last input epoch the workload had fed the leaf when it crashed.
    pub crash_epoch: u64,
    /// Federation tick of the crash.
    pub crash_tick: u64,
    /// Input epoch at which the root first saw the leaf's post-recovery
    /// gauges cover the crash epoch — `None` if it never recovered.
    /// `recovered_epoch - crash_epoch` is the recovery latency in
    /// epochs.
    pub recovered_epoch: Option<u64>,
}

/// Operational counters across one federation run.
#[derive(Clone, Debug, Default)]
pub struct FederationStats {
    /// Federation ticks executed (including finalize drain).
    pub ticks: u64,
    /// Frames offered to links (first transmissions).
    pub frames_sent: u64,
    /// Frame retransmissions after an RTO expiry.
    pub retransmits: u64,
    /// Frames the link policy dropped.
    pub frames_lost: u64,
    /// Acks offered to links (dropped ones included, like
    /// `frames_sent`).
    pub acks_sent: u64,
    /// Acks the link policy dropped.
    pub acks_lost: u64,
    /// Frames accepted in order by a receiver.
    pub frames_delivered: u64,
    /// Duplicate frames dropped by receivers.
    pub dup_frames: u64,
    /// Parked frames that later became contiguous and applied.
    pub healed_frames: u64,
    /// Frames discarded for a checksum mismatch.
    pub corrupt_frames: u64,
    /// Reordered frames dropped because the park buffer was full.
    pub park_overflow: u64,
    /// In-order frames rejected for a per-stage sequence mismatch.
    pub rejected_frames: u64,
    /// Messages delivered to a crashed node and discarded.
    pub dropped_to_dead: u64,
    /// Checkpoints taken across all nodes.
    pub checkpoints: u64,
    /// Planned crashes fired.
    pub crashes: u64,
    /// Crash recoveries performed.
    pub recoveries: u64,
    /// Leaf input resyncs (recovery catch-up or damaged input).
    pub input_resyncs: u64,
    /// Input batches fed to a crashed leaf (recovered later via
    /// resync, or lost if the leaf never recovers).
    pub missed_batches: u64,
    /// Flushes skipped because the sender spool was full.
    pub spool_stalls: u64,
    /// Input deltas for stages the leaf does not own (dropped).
    pub foreign_deltas: u64,
    /// Input deltas that failed to apply at a leaf (triggers resync).
    pub input_errors: u64,
    /// Peak resident change events at any leaf (pending + spool).
    pub peak_resident_leaf: u64,
    /// Peak resident change events at any regional (pending + spool +
    /// parked).
    pub peak_resident_regional: u64,
    /// Peak resident change events parked at the root.
    pub peak_resident_root: u64,
    /// Change events fed into leaves (compaction denominator).
    pub leaf_events_in: u64,
    /// Change events the root applied (compaction numerator).
    pub root_events_applied: u64,
    /// Wire-frame bytes offered to leaf uplinks, counted per
    /// transmission (retransmits included).
    pub leaf_link_wire_bytes: u64,
    /// Wire-frame bytes offered to regional uplinks, counted per
    /// transmission (retransmits included).
    pub regional_link_wire_bytes: u64,
    /// Wire frames a receiver could not decode (envelope or body
    /// damage). The frame is dropped; the sender's RTO retransmit
    /// heals the link, exactly like a lost frame.
    pub wire_decode_errors: u64,
}

/// Everything a finished federation run hands back.
pub struct FederationOutput {
    /// The root collector's finalized, byte-locked report.
    pub output: CollectorOutput,
    /// Delivered/truth coverage in parts-per-million (1_000_000 on a
    /// clean run).
    pub coverage_ppm: u64,
    /// Labels of subtrees finalized degraded (missing mass, or dead).
    pub degraded: Vec<String>,
    /// The mass ledger for [`whodunit_core::oracle::check_federation`].
    pub evidence: FederationEvidence,
    /// Operational counters.
    pub stats: FederationStats,
    /// Final topology view (renderable via
    /// [`whodunit_report::live::render_fed_topology`]).
    pub topology: FedTopologyView,
    /// Planted-crash lifecycle records, in planting order.
    pub recovery: Vec<RecoveryRecord>,
}

fn extend_interval(iv: &mut Option<(u64, u64)>, first: u64, last: u64) {
    *iv = Some(match *iv {
        None => (first, last),
        Some((a, b)) => (a.min(first), b.max(last)),
    });
}

fn merge_pending(slot: &mut Option<StageDelta>, d: &StageDelta, events: &mut u64) {
    *events += d.events();
    match slot {
        Some(acc) => merge_stage_delta(acc, d)
            .expect("contiguous same-stage increments always merge"),
        None => {
            let mut e = empty_delta(d.stage);
            merge_stage_delta(&mut e, d).expect("merge into identity");
            *slot = Some(e);
        }
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
struct LeafState {
    /// Input accumulators, parallel to the owned stage list. Needed to
    /// verify input deltas and to diff against resync snapshots. The
    /// only cumulative part of the state: a checkpoint advances its
    /// copy by replaying the journal, never by cloning.
    accs: Vec<StageAccumulator>,
    /// Merged not-yet-flushed increment per owned stage.
    pending: Vec<Option<StageDelta>>,
    pending_events: u64,
    /// Next outgoing per-stage delta seq, parallel to owned stages.
    out_seq: Vec<u64>,
    /// Sender half of the uplink to the regional.
    up: Uplink,
    /// Input epoch interval the pending increment covers.
    interval: Option<(u64, u64)>,
    /// Latest input virtual time seen.
    end: u64,
    /// Per-owned-stage interval cost digest (drained per flush).
    sketches: Vec<QuantileSketch>,
    /// Profile mass in the pending increment.
    interval_mass: u64,
    /// Cumulative health gauges, shipped on every frame.
    gauges: LeafGauges,
}

struct LeafNode {
    leaf_id: u32,
    region: usize,
    child_slot: usize,
    /// Owned global stage indices, ascending.
    stages: Vec<usize>,
    /// Tier (stage) names parallel to `stages`.
    names: Vec<String>,
    st: LeafState,
    ckpt: LeafState,
    /// Every op applied to `st.accs` since `ckpt` was taken, as
    /// `(owned-stage slot, op)` in application order: `ckpt.accs` plus
    /// the journal is `st.accs`. Volatile — a crash loses it with `st`.
    journal: Vec<(usize, Redo)>,
    /// Change events the journal holds.
    journal_events: u64,
    snd: Sender,
    alive: bool,
    need_resync: bool,
}

impl LeafNode {
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

    fn ingest(&mut self, batch: &EpochBatch, stats: &mut FederationStats) {
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
            let m = delta_mass(d);
            self.st.interval_mass += m;
            self.st.gauges.mass += m;
            self.st.sketches[si].record(m);
            merge_pending(&mut self.st.pending[si], d, &mut self.st.pending_events);
        }
        self.st.gauges.events += batch.events();
        self.st.gauges.last_epoch = self.st.gauges.last_epoch.max(batch.epoch);
        extend_interval(&mut self.st.interval, batch.epoch, batch.epoch);
        self.st.end = self.st.end.max(batch.end);
    }

    /// Catches the input side up to the emitter mirror: per owned
    /// stage, diff the accumulator against the snapshot and fold the
    /// catch-up delta through the normal merge path.
    fn catchup(
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
                let m = delta_mass(&cd);
                self.log(si, Redo::Apply(cd.clone()))
                    .expect("catch-up delta applies");
                self.st.interval_mass += m;
                self.st.gauges.mass += m;
                self.st.gauges.events += cd.events();
                self.st.sketches[si].record(m);
                merge_pending(&mut self.st.pending[si], &cd, &mut self.st.pending_events);
                gained = true;
            }
            self.log(si, Redo::Seek(upto)).expect("seek cannot refuse");
        }
        if gained {
            extend_interval(&mut self.st.interval, up_to_epoch, up_to_epoch);
            self.st.end = self.st.end.max(up_to_end);
        }
        self.st.gauges.last_epoch = self.st.gauges.last_epoch.max(up_to_epoch);
        self.need_resync = false;
        stats.input_resyncs += 1;
    }

    fn flush(&mut self, stats: &mut FederationStats) {
        if self.st.interval.is_none() {
            return;
        }
        if self.st.up.is_full() {
            stats.spool_stalls += 1;
            self.st.gauges.lag_frames = self.st.up.spool_len() as u64;
            return;
        }
        let (first, last) = self.st.interval.take().expect("checked above");
        let mut deltas = Vec::new();
        for (si, slot) in self.st.pending.iter_mut().enumerate() {
            if let Some(d) = slot.take() {
                if d.is_empty() {
                    continue;
                }
                let seq = self.st.out_seq[si];
                self.st.out_seq[si] += 1;
                deltas.push(seal_delta(d, seq));
            }
        }
        self.st.pending_events = 0;
        if deltas.is_empty() && self.st.interval_mass == 0 {
            return; // content-free interval: nothing to ship
        }
        let mut by_tier: BTreeMap<&str, QuantileSketch> = BTreeMap::new();
        for (si, sk) in self.st.sketches.iter().enumerate() {
            if sk.count() > 0 {
                by_tier.entry(&self.names[si]).or_default().merge(sk);
            }
        }
        let sketches = by_tier
            .into_iter()
            .map(|(t, sk)| TierSketch::of(t, &sk))
            .collect();
        for sk in &mut self.st.sketches {
            *sk = QuantileSketch::new();
        }
        let gauges = {
            let mut g = self.st.gauges;
            g.lag_frames = self.st.up.spool_len() as u64;
            g
        };
        self.st.up.seal(SummaryFrame {
            src: self.leaf_id,
            seq: 0,
            first_epoch: first,
            last_epoch: last,
            end: self.st.end,
            deltas,
            sketches,
            leaf_mass: vec![(self.leaf_id, self.st.interval_mass)],
            gauges: vec![(self.leaf_id, gauges)],
            checksum: 0,
        });
        self.st.interval_mass = 0;
    }

    /// Brings `ckpt` up to `st`: replays the journal into `ckpt.accs`
    /// and copies the rest, which is small — the un-flushed increment,
    /// a spool of shared bytes, drained sketches and counters.
    fn checkpoint(&mut self, stats: &mut FederationStats) {
        self.st.gauges.checkpoints += 1;
        for (si, op) in self.journal.drain(..) {
            op.run(&mut self.ckpt.accs[si])
                .expect("an op the live state took replays onto its checkpoint");
        }
        self.journal_events = 0;
        // Exhaustive on purpose: a new `LeafState` field must decide
        // here how it reaches the checkpoint.
        let LeafState {
            accs: _,
            pending,
            pending_events,
            out_seq,
            up,
            interval,
            end,
            sketches,
            interval_mass,
            gauges,
        } = &self.st;
        let ck = &mut self.ckpt;
        ck.pending.clone_from(pending);
        ck.pending_events = *pending_events;
        ck.out_seq.clone_from(out_seq);
        ck.up.clone_from(up);
        ck.interval = *interval;
        ck.end = *end;
        ck.sketches.clone_from(sketches);
        ck.interval_mass = *interval_mass;
        ck.gauges = *gauges;
        #[cfg(test)]
        tests::assert_checkpoint_is_a_clone(self);
        self.snd.checkpointed(&self.st.up);
        stats.checkpoints += 1;
    }

    fn recover(&mut self, now: u64) {
        self.st = self.ckpt.clone();
        self.journal.clear();
        self.journal_events = 0;
        self.st.gauges.recoveries += 1;
        self.snd = Sender::restart(&self.st.up, now);
        self.alive = true;
        self.need_resync = true;
    }

    fn resident_events(&self) -> u64 {
        self.st.pending_events + self.st.up.spool_events() + self.journal_events
    }
}

/// Durable (checkpointed) state of one regional aggregator.
#[derive(Clone)]
struct RegionalState {
    /// Merged not-yet-flushed increment per global stage.
    pending: BTreeMap<usize, StageDelta>,
    pending_events: u64,
    /// Next expected incoming per-stage delta seq.
    in_seq: BTreeMap<usize, u64>,
    /// Next outgoing per-stage delta seq.
    out_seq: BTreeMap<usize, u64>,
    /// Sender half of the uplink to the root.
    up: Uplink,
    /// Per-child receive state.
    rx: Vec<RxState>,
    interval: Option<(u64, u64)>,
    end: u64,
    /// Per-tier interval digests (merged from child frames).
    sketches: BTreeMap<String, QuantileSketch>,
    /// Interval mass per originating leaf.
    leaf_mass: BTreeMap<u32, u64>,
    /// Latest gauges per originating leaf.
    gauges: BTreeMap<u32, LeafGauges>,
}

struct RegionalNode {
    region_id: usize,
    src: u32,
    /// Leaf ids of the children, by slot.
    children: Vec<u32>,
    st: RegionalState,
    ckpt: RegionalState,
    snd: Sender,
    alive: bool,
}

impl RegionalNode {
    /// Handles one incoming frame; returns a cumulative ack to send
    /// back, if any is due now (regular acks ride the checkpoint
    /// cadence; only duplicates of already-covered frames re-ack
    /// immediately, to heal lost acks cheaply).
    fn on_frame(&mut self, slot: usize, bytes: &[u8], stats: &mut FederationStats) -> Option<u64> {
        let mut rx = std::mem::take(&mut self.st.rx[slot]);
        let ack = rx.receive(bytes, AckMode::OnCheckpoint, stats, |f, stats| {
            self.accept(&f, stats)
        });
        self.st.rx[slot] = rx;
        ack
    }

    fn accept(&mut self, f: &SummaryFrame, stats: &mut FederationStats) -> bool {
        // Per-stage contiguity check first, so a bad frame is rejected
        // whole (and the per-link seq does not advance — the sender
        // will retry until the deadline marks the subtree degraded).
        for d in &f.deltas {
            if d.seq != self.st.in_seq.get(&d.stage).copied().unwrap_or(0) {
                stats.rejected_frames += 1;
                return false;
            }
        }
        for d in &f.deltas {
            *self.st.in_seq.entry(d.stage).or_insert(0) += 1;
            let slot = &mut self.st.pending;
            let events = &mut self.st.pending_events;
            *events += d.events();
            match slot.get_mut(&d.stage) {
                Some(acc) => merge_stage_delta(acc, d)
                    .expect("in-order child increments always merge"),
                None => {
                    let mut e = empty_delta(d.stage);
                    merge_stage_delta(&mut e, d).expect("merge into identity");
                    slot.insert(d.stage, e);
                }
            }
        }
        extend_interval(&mut self.st.interval, f.first_epoch, f.last_epoch);
        self.st.end = self.st.end.max(f.end);
        for ts in &f.sketches {
            self.st
                .sketches
                .entry(ts.tier.clone())
                .or_default()
                .merge(&QuantileSketch::from_wire(ts.max, &ts.buckets));
        }
        for &(l, m) in &f.leaf_mass {
            *self.st.leaf_mass.entry(l).or_insert(0) += m;
        }
        for &(l, g) in &f.gauges {
            let e = self.st.gauges.entry(l).or_insert(g);
            if g.last_epoch >= e.last_epoch {
                *e = g;
            }
        }
        stats.frames_delivered += 1;
        true
    }

    fn flush(&mut self, stats: &mut FederationStats) {
        if self.st.interval.is_none() {
            return;
        }
        if self.st.up.is_full() {
            stats.spool_stalls += 1;
            return;
        }
        let (first, last) = self.st.interval.take().expect("checked above");
        let pending = std::mem::take(&mut self.st.pending);
        self.st.pending_events = 0;
        let mut deltas = Vec::new();
        for (gs, d) in pending {
            if d.is_empty() {
                continue;
            }
            let seq = self.st.out_seq.entry(gs).or_insert(0);
            let s = *seq;
            *seq += 1;
            deltas.push(seal_delta(d, s));
        }
        let mass_total: u64 = self.st.leaf_mass.values().sum();
        if deltas.is_empty() && mass_total == 0 {
            return;
        }
        let sketches = std::mem::take(&mut self.st.sketches)
            .into_iter()
            .map(|(t, sk)| TierSketch::of(&t, &sk))
            .collect();
        let leaf_mass = std::mem::take(&mut self.st.leaf_mass).into_iter().collect();
        let gauges = self.st.gauges.iter().map(|(&l, &g)| (l, g)).collect();
        self.st.up.seal(SummaryFrame {
            src: self.src,
            seq: 0,
            first_epoch: first,
            last_epoch: last,
            end: self.st.end,
            deltas,
            sketches,
            leaf_mass,
            gauges,
            checksum: 0,
        });
    }

    /// Takes a checkpoint and returns the cumulative acks now covered
    /// by it, per child slot (periodic re-acks heal lost acks).
    fn checkpoint(&mut self, stats: &mut FederationStats) -> Vec<(usize, u64)> {
        let acks = self
            .st
            .rx
            .iter_mut()
            .enumerate()
            .filter_map(|(slot, rx)| Some((slot, rx.checkpointed()?)))
            .collect();
        self.ckpt = self.st.clone();
        self.snd.checkpointed(&self.st.up);
        stats.checkpoints += 1;
        acks
    }

    fn recover(&mut self, now: u64, stats: &mut FederationStats) {
        self.st = self.ckpt.clone();
        self.snd = Sender::restart(&self.st.up, now);
        self.alive = true;
        stats.recoveries += 1;
    }

    fn resident_events(&self) -> u64 {
        self.st.pending_events
            + self.st.up.spool_events()
            + self.st.rx.iter().map(|x| x.parked_events()).sum::<u64>()
    }
}

struct RootNode {
    collector: Collector,
    batch_seq: u64,
    /// Per-regional-link receive state.
    rx: Vec<RxState>,
    /// Mass the root applied, per originating leaf (the frames' own
    /// ledger).
    delivered: BTreeMap<u32, u64>,
    /// Mass the root actually applied, measured from delta content —
    /// independently of the frames' self-reported ledger.
    applied_mass: u64,
    gauges: BTreeMap<u32, LeafGauges>,
    max_epoch: u64,
    events_applied: u64,
}

impl RootNode {
    /// The root acks immediately on apply: it is the durable terminus
    /// of the tree (root crashes are out of scope).
    fn on_frame(&mut self, slot: usize, bytes: &[u8], stats: &mut FederationStats) -> Option<u64> {
        let mut rx = std::mem::take(&mut self.rx[slot]);
        let ack = rx.receive(bytes, AckMode::Immediate, stats, |f, stats| {
            self.apply(f, stats);
            true
        });
        self.rx[slot] = rx;
        ack
    }

    fn apply(&mut self, f: SummaryFrame, stats: &mut FederationStats) {
        self.applied_mass += f.deltas.iter().map(delta_mass).sum::<u64>();
        for &(l, m) in &f.leaf_mass {
            *self.delivered.entry(l).or_insert(0) += m;
        }
        for &(l, g) in &f.gauges {
            let e = self.gauges.entry(l).or_insert(g);
            if g.last_epoch >= e.last_epoch {
                *e = g;
            }
        }
        self.max_epoch = self.max_epoch.max(f.last_epoch);
        self.events_applied += f.events();
        stats.frames_delivered += 1;
        stats.root_events_applied += f.events();
        let batch = EpochBatch {
            epoch: f.last_epoch,
            seq: self.batch_seq,
            end: f.end,
            deltas: f.deltas,
        };
        self.batch_seq += 1;
        self.collector.enqueue(batch);
        self.collector.drain();
    }

    fn resident_events(&self) -> u64 {
        self.rx.iter().map(|x| x.parked_events()).sum()
    }
}

/// One message in flight on the link fabric. Frames travel as the
/// sealed [`whodunit_core::wire`] bytes the sender spooled, decoded
/// (and envelope-verified) at the receiving end.
#[derive(Clone, Debug)]
enum FedMsg {
    /// A frame arriving at a regional from child `slot`.
    ToRegion {
        region: usize,
        slot: usize,
        bytes: WireFrame,
    },
    /// A frame arriving at the root from regional `slot`.
    ToRoot { slot: usize, bytes: WireFrame },
    /// A cumulative ack arriving back at a leaf.
    LeafAck { leaf: usize, upto: u64 },
    /// A cumulative ack arriving back at a regional's sender side.
    RegionAck { region: usize, upto: u64 },
}

/// The federation harness: owns the tree, the virtual link fabric, the
/// per-leaf emitter mirrors (truth for resync and coverage), and the
/// planned fault schedule. Drive it with [`Federation::feed`] and
/// [`Federation::tick`], then [`Federation::finalize`].
pub struct Federation {
    cfg: FederationConfig,
    leaves: Vec<LeafNode>,
    regions: Vec<RegionalNode>,
    root: RootNode,
    /// Per-leaf emitter mirror: the clean input stream replayed in
    /// lockstep, serving resync snapshots (PR 6's [`ResyncSource`]).
    mirrors: Vec<RecordedResync>,
    /// Ground-truth profile mass fed per leaf.
    truth: Vec<u64>,
    /// Last input epoch fed per leaf.
    truth_epoch: Vec<u64>,
    /// Last input virtual time fed per leaf.
    truth_end: Vec<u64>,
    policy: Box<dyn LinkPolicy>,
    queue: BTreeMap<(u64, u64), FedMsg>,
    msg_order: u64,
    now: u64,
    crashes: Vec<PlannedCrash>,
    recovery_log: Vec<RecoveryRecord>,
    stats: FederationStats,
}

impl Federation {
    /// Builds a federation over `header` (the full fleet stage set).
    ///
    /// `topology[r][l]` is the list of global stage indices leaf `l` of
    /// region `r` owns; leaves are numbered in iteration order. Every
    /// header stage must be owned by exactly one leaf (the clean-run
    /// byte-identity target is the flat pipeline over all stages).
    pub fn new(
        header: &StreamHeader,
        topology: &[Vec<Vec<usize>>],
        cfg: FederationConfig,
        policy: Box<dyn LinkPolicy>,
    ) -> Federation {
        assert!(cfg.flush_every >= 1 && cfg.checkpoint_every >= 1);
        let mut owned = vec![false; header.stages.len()];
        let mut leaves = Vec::new();
        let mut regions = Vec::new();
        for (r, leaf_specs) in topology.iter().enumerate() {
            let mut children = Vec::new();
            for spec in leaf_specs {
                let leaf_id = leaves.len() as u32;
                let mut stages = spec.clone();
                stages.sort_unstable();
                let mut names = Vec::with_capacity(stages.len());
                for &gs in &stages {
                    assert!(gs < header.stages.len(), "stage {gs} out of range");
                    assert!(!owned[gs], "stage {gs} owned by two leaves");
                    owned[gs] = true;
                    names.push(header.stages[gs].stage_name.clone());
                }
                // Built twice — live state and checkpoint zero — since
                // the two never share a copy again.
                let empty_state = || LeafState {
                    accs: stages
                        .iter()
                        .map(|&gs| StageAccumulator::new(&header.stages[gs]))
                        .collect(),
                    pending: vec![None; stages.len()],
                    pending_events: 0,
                    out_seq: vec![0; stages.len()],
                    up: Uplink::default(),
                    interval: None,
                    end: 0,
                    sketches: vec![QuantileSketch::new(); stages.len()],
                    interval_mass: 0,
                    gauges: LeafGauges::default(),
                };
                let (st, ckpt) = (empty_state(), empty_state());
                leaves.push(LeafNode {
                    leaf_id,
                    region: r,
                    child_slot: children.len(),
                    stages,
                    names,
                    snd: Sender::restart(&st.up, 0),
                    ckpt,
                    st,
                    journal: Vec::new(),
                    journal_events: 0,
                    alive: true,
                    need_resync: false,
                });
                children.push(leaf_id);
            }
            let st = RegionalState {
                pending: BTreeMap::new(),
                pending_events: 0,
                in_seq: BTreeMap::new(),
                out_seq: BTreeMap::new(),
                up: Uplink::default(),
                rx: children.iter().map(|_| RxState::default()).collect(),
                interval: None,
                end: 0,
                sketches: BTreeMap::new(),
                leaf_mass: BTreeMap::new(),
                gauges: BTreeMap::new(),
            };
            regions.push(RegionalNode {
                region_id: r,
                src: 0, // assigned below once the leaf count is known
                children,
                snd: Sender::restart(&st.up, 0),
                ckpt: st.clone(),
                st,
                alive: true,
            });
        }
        assert!(
            owned.iter().all(|&o| o),
            "every header stage must be owned by a leaf"
        );
        let n_leaves = leaves.len();
        for (r, reg) in regions.iter_mut().enumerate() {
            reg.src = (n_leaves + r) as u32;
        }
        let root = RootNode {
            collector: Collector::with_header(header, cfg.collector.clone()),
            batch_seq: 0,
            rx: regions.iter().map(|_| RxState::default()).collect(),
            delivered: BTreeMap::new(),
            applied_mass: 0,
            gauges: BTreeMap::new(),
            max_epoch: 0,
            events_applied: 0,
        };
        Federation {
            mirrors: leaves.iter().map(|_| RecordedResync::new(header)).collect(),
            truth: vec![0; n_leaves],
            truth_epoch: vec![0; n_leaves],
            truth_end: vec![0; n_leaves],
            cfg,
            leaves,
            regions,
            root,
            policy,
            queue: BTreeMap::new(),
            msg_order: 0,
            now: 0,
            crashes: Vec::new(),
            recovery_log: Vec::new(),
            stats: FederationStats::default(),
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Current federation tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Operational counters so far.
    pub fn stats(&self) -> &FederationStats {
        &self.stats
    }

    /// Plants a crash of `node` at tick `at` (must be in the future),
    /// with an optional recovery tick. Leaf crashes are tracked in the
    /// recovery log for latency accounting.
    pub fn crash(&mut self, node: FedNodeId, at: u64, recover_at: Option<u64>) {
        assert!(at > self.now, "crash must be planted in the future");
        if let Some(r) = recover_at {
            assert!(r > at, "recovery must follow the crash");
        }
        self.crashes.push(PlannedCrash {
            node,
            at,
            recover_at,
            fired: false,
            recovered: false,
        });
    }

    /// Feeds one input epoch batch to `leaf`. Always advances the
    /// emitter mirror and the ground-truth ledger; the leaf itself
    /// only ingests while alive (missed input is recovered through the
    /// resync path, or honestly reported as missing coverage).
    pub fn feed(&mut self, leaf: usize, batch: &EpochBatch) {
        if self.feed_truth(leaf, batch) {
            self.leaves[leaf].ingest(batch, &mut self.stats);
        }
    }

    /// The part of a feed that happens whether or not the leaf is up:
    /// ground truth, emitter mirror, and liveness. Returns whether the
    /// leaf should actually ingest.
    fn feed_truth(&mut self, leaf: usize, batch: &EpochBatch) -> bool {
        let mass: u64 = batch.deltas.iter().map(delta_mass).sum();
        self.truth[leaf] += mass;
        self.truth_epoch[leaf] = self.truth_epoch[leaf].max(batch.epoch);
        self.truth_end[leaf] = self.truth_end[leaf].max(batch.end);
        self.mirrors[leaf].advance(batch);
        self.stats.leaf_events_in += batch.events();
        if !self.leaves[leaf].alive {
            self.stats.missed_batches += 1;
            return false;
        }
        true
    }

    /// Feeds one round — at most one batch per distinct leaf, leaves
    /// ascending — as [`Federation::feed`] per entry.
    pub fn feed_round(&mut self, round: &[(usize, &EpochBatch)]) {
        // Over the round as given: a crashed leaf is not exempt.
        assert!(
            round.windows(2).all(|w| w[0].0 < w[1].0),
            "one batch per leaf, ascending"
        );
        for &(leaf, batch) in round {
            self.feed(leaf, batch);
        }
    }

    /// The one place a message enters a link: meters it, asks the
    /// policy for its fate, and queues the surviving copies.
    fn enqueue_msg(&mut self, link: u32, msg: FedMsg) {
        let lost = match &msg {
            FedMsg::ToRegion { bytes, .. } => {
                self.stats.leaf_link_wire_bytes += bytes.len() as u64;
                &mut self.stats.frames_lost
            }
            FedMsg::ToRoot { bytes, .. } => {
                self.stats.regional_link_wire_bytes += bytes.len() as u64;
                &mut self.stats.frames_lost
            }
            FedMsg::LeafAck { .. } | FedMsg::RegionAck { .. } => {
                self.stats.acks_sent += 1;
                &mut self.stats.acks_lost
            }
        };
        let v = self.policy.verdict(link, self.now);
        if v.copies == 0 {
            *lost += 1;
            return;
        }
        for _ in 0..v.copies {
            self.msg_order += 1;
            self.queue
                .insert((self.now + 1 + v.delay, self.msg_order), msg.clone());
        }
    }

    /// Advances the federation one tick: fires planned crashes and
    /// recoveries, flushes and checkpoints on cadence, pumps senders,
    /// and delivers due messages.
    pub fn tick(&mut self) {
        self.now += 1;
        let now = self.now;
        self.stats.ticks = now;

        // 1. Planned crashes and recoveries.
        for ci in 0..self.crashes.len() {
            let (node, at, recover_at, fired, recovered) = {
                let c = &self.crashes[ci];
                (c.node, c.at, c.recover_at, c.fired, c.recovered)
            };
            if !fired && at == now {
                self.crashes[ci].fired = true;
                self.stats.crashes += 1;
                match node {
                    FedNodeId::Leaf(i) => {
                        self.leaves[i].alive = false;
                        self.recovery_log.push(RecoveryRecord {
                            leaf: i,
                            crash_epoch: self.truth_epoch[i],
                            crash_tick: now,
                            recovered_epoch: None,
                        });
                    }
                    FedNodeId::Regional(i) => self.regions[i].alive = false,
                }
            }
            if fired && !recovered && recover_at == Some(now) {
                self.crashes[ci].recovered = true;
                match node {
                    FedNodeId::Leaf(i) => {
                        self.leaves[i].recover(now);
                        self.stats.recoveries += 1;
                    }
                    FedNodeId::Regional(i) => self.regions[i].recover(now, &mut self.stats),
                }
            }
        }

        // 2. Input resync for leaves that need it (recovery or damage).
        {
            let Federation {
                leaves,
                mirrors,
                truth_epoch,
                truth_end,
                stats,
                ..
            } = self;
            for (i, l) in leaves.iter_mut().enumerate() {
                if l.alive && l.need_resync {
                    l.catchup(&mirrors[i], truth_epoch[i], truth_end[i], stats);
                }
            }
        }

        // 3. Flush on cadence (leaves first, then regionals).
        if now.is_multiple_of(self.cfg.flush_every) {
            for l in &mut self.leaves {
                if l.alive {
                    l.flush(&mut self.stats);
                }
            }
            for r in &mut self.regions {
                if r.alive {
                    r.flush(&mut self.stats);
                }
            }
        }

        // 4. Checkpoint on cadence; regional checkpoints release acks.
        let mut outbox: Vec<(u32, FedMsg)> = Vec::new();
        if now.is_multiple_of(self.cfg.checkpoint_every) {
            for l in &mut self.leaves {
                if l.alive {
                    l.checkpoint(&mut self.stats);
                }
            }
            for r in 0..self.regions.len() {
                if !self.regions[r].alive {
                    continue;
                }
                for (slot, upto) in self.regions[r].checkpoint(&mut self.stats) {
                    let leaf = self.regions[r].children[slot] as usize;
                    outbox.push((leaf as u32, FedMsg::LeafAck { leaf, upto }));
                }
            }
        }

        // 5. Pump senders (first-sends of gated frames + RTO retries).
        let n_leaves = self.leaves.len();
        for (i, l) in self.leaves.iter_mut().enumerate() {
            if !l.alive {
                continue;
            }
            for bytes in l.snd.pump(&l.st.up, now, &mut self.stats) {
                outbox.push((
                    i as u32,
                    FedMsg::ToRegion {
                        region: l.region,
                        slot: l.child_slot,
                        bytes,
                    },
                ));
            }
        }
        for (r, reg) in self.regions.iter_mut().enumerate() {
            if !reg.alive {
                continue;
            }
            for bytes in reg.snd.pump(&reg.st.up, now, &mut self.stats) {
                outbox.push(((n_leaves + r) as u32, FedMsg::ToRoot { slot: r, bytes }));
            }
        }
        for (link, msg) in outbox {
            self.enqueue_msg(link, msg);
        }

        // 6. Deliver due messages (acks generated here land next tick).
        let mut acks_out: Vec<(u32, FedMsg)> = Vec::new();
        while let Some((&key, _)) = self.queue.first_key_value() {
            if key.0 > now {
                break;
            }
            match self.queue.remove(&key).expect("key just observed") {
                FedMsg::ToRegion {
                    region,
                    slot,
                    bytes,
                } => {
                    let r = &mut self.regions[region];
                    if !r.alive {
                        self.stats.dropped_to_dead += 1;
                        continue;
                    }
                    if let Some(upto) = r.on_frame(slot, &bytes, &mut self.stats) {
                        let leaf = r.children[slot] as usize;
                        acks_out.push((leaf as u32, FedMsg::LeafAck { leaf, upto }));
                    }
                }
                FedMsg::ToRoot { slot, bytes } => {
                    if let Some(upto) = self.root.on_frame(slot, &bytes, &mut self.stats) {
                        let ack = FedMsg::RegionAck { region: slot, upto };
                        acks_out.push(((n_leaves + slot) as u32, ack));
                    }
                }
                FedMsg::LeafAck { leaf, upto } => {
                    let l = &mut self.leaves[leaf];
                    if !l.alive {
                        self.stats.dropped_to_dead += 1;
                        continue;
                    }
                    l.snd.on_ack(&mut l.st.up, upto, now);
                }
                FedMsg::RegionAck { region, upto } => {
                    let r = &mut self.regions[region];
                    if !r.alive {
                        self.stats.dropped_to_dead += 1;
                        continue;
                    }
                    r.snd.on_ack(&mut r.st.up, upto, now);
                }
            }
        }
        for (link, msg) in acks_out {
            self.enqueue_msg(link, msg);
        }

        // 7. Residency sampling and recovery-latency detection.
        for l in &self.leaves {
            self.stats.peak_resident_leaf = self.stats.peak_resident_leaf.max(l.resident_events());
        }
        for r in &self.regions {
            self.stats.peak_resident_regional =
                self.stats.peak_resident_regional.max(r.resident_events());
        }
        self.stats.peak_resident_root = self
            .stats
            .peak_resident_root
            .max(self.root.resident_events());
        for rec in &mut self.recovery_log {
            if rec.recovered_epoch.is_none() {
                if let Some(g) = self.root.gauges.get(&(rec.leaf as u32)) {
                    if g.recoveries > 0 && g.last_epoch >= rec.crash_epoch {
                        rec.recovered_epoch = Some(g.last_epoch);
                    }
                }
            }
        }
    }

    /// Whether every live node has shipped and settled everything it
    /// holds (dead nodes excepted — their mass is the degraded story).
    fn quiesced(&self) -> bool {
        self.queue.is_empty()
            && self.leaves.iter().all(|l| {
                !l.alive || (l.st.interval.is_none() && l.st.up.spool_len() == 0 && !l.need_resync)
            })
            && self.regions.iter().all(|r| {
                !r.alive
                    || (r.st.interval.is_none()
                        && r.st.up.spool_len() == 0
                        && r.st.rx.iter().all(|x| x.parked_len() == 0))
            })
    }

    /// Delivered/truth coverage in parts-per-million at this instant.
    pub fn coverage_ppm(&self) -> u64 {
        let delivered: u64 = self.root.delivered.values().sum();
        let truth: u64 = self.truth.iter().sum();
        delivered
            .saturating_mul(1_000_000)
            .checked_div(truth)
            .unwrap_or(1_000_000)
    }

    /// The operator's topology view at this instant: per-level fan-in,
    /// lag, liveness, and the root's per-subtree delivery ledger.
    pub fn topology_view(&self) -> FedTopologyView {
        let children = self
            .regions
            .iter()
            .map(|r| FedNodeView {
                label: format!("region{}", r.region_id),
                alive: r.alive,
                degraded: !r.alive,
                lag_frames: (r.st.up.spool_len()
                    + r.st.rx.iter().map(|x| x.parked_len()).sum::<usize>())
                    as u64,
                last_epoch: r.st.gauges.values().map(|g| g.last_epoch).max().unwrap_or(0),
                mass: r.children.iter().fold(0, |a, &l| {
                    a + self.root.delivered.get(&l).copied().unwrap_or(0)
                }),
                recoveries: 0,
                children: r
                    .children
                    .iter()
                    .map(|&lid| {
                        let l = &self.leaves[lid as usize];
                        let g = self.root.gauges.get(&lid).copied().unwrap_or_default();
                        let delivered = self.root.delivered.get(&lid).copied().unwrap_or(0);
                        FedNodeView {
                            label: format!("leaf{lid}"),
                            alive: l.alive,
                            degraded: !l.alive,
                            lag_frames: g.lag_frames,
                            last_epoch: g.last_epoch,
                            mass: delivered,
                            recoveries: g.recoveries,
                            children: Vec::new(),
                        }
                    })
                    .collect(),
            })
            .collect();
        FedTopologyView {
            root: FedNodeView {
                label: "root".into(),
                alive: true,
                degraded: false,
                lag_frames: self.root.rx.iter().map(|x| x.parked_len() as u64).sum(),
                last_epoch: self.root.max_epoch,
                mass: self.root.applied_mass,
                recoveries: 0,
                children,
            },
            coverage_ppm: self.coverage_ppm(),
            epoch: self.root.max_epoch,
        }
    }

    /// Drains the tree (up to the configured deadline), marks whatever
    /// is still missing as degraded, and finalizes the root collector.
    ///
    /// On a clean, fully-delivered run the finalized report is
    /// byte-identical to the flat batch pipeline over the whole fleet
    /// and coverage is exactly 1.0; with unrecoverable subtrees, the
    /// run still completes, with the missing mass attributed per
    /// subtree in the evidence ledger.
    pub fn finalize(mut self) -> FederationOutput {
        let deadline = self.now + self.cfg.deadline_ticks;
        while self.now < deadline && !self.quiesced() {
            self.tick();
        }

        let mut subtrees = Vec::new();
        let mut degraded = Vec::new();
        for i in 0..self.leaves.len() {
            let delivered = self.root.delivered.get(&(i as u32)).copied().unwrap_or(0);
            let truth = self.truth[i];
            let is_degraded = delivered < truth;
            if is_degraded {
                degraded.push(format!("leaf{i}"));
            }
            subtrees.push(SubtreeMass {
                label: format!("leaf{i}"),
                delivered,
                truth,
                degraded: is_degraded,
            });
        }
        for r in &self.regions {
            if !r.alive {
                degraded.push(format!("region{}", r.region_id));
            }
        }
        let coverage_ppm = self.coverage_ppm();
        // Mark the final view with the settled degraded verdicts.
        let mut topology = self.topology_view();
        for (rv, reg) in topology.root.children.iter_mut().zip(&self.regions) {
            rv.degraded = !reg.alive;
            for (lv, &lid) in rv.children.iter_mut().zip(&reg.children) {
                lv.degraded = subtrees[lid as usize].degraded;
            }
        }
        let evidence = FederationEvidence {
            subtrees,
            root_mass: self.root.applied_mass,
            reported_coverage_ppm: coverage_ppm,
        };
        FederationOutput {
            output: self.root.collector.finalize(),
            coverage_ppm,
            degraded,
            evidence,
            stats: self.stats,
            topology,
            recovery: self.recovery_log,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;
    use whodunit_core::delta::{diff_dump, StreamStage};
    use whodunit_core::stitch::{DumpCct, DumpContext, DumpNode, StageDump};

    fn node(cycles: u64) -> DumpNode {
        DumpNode {
            frame: None,
            parent: None,
            samples: 1,
            cycles,
            calls: 1,
        }
    }

    pub(crate) fn header2() -> StreamHeader {
        StreamHeader {
            stages: vec![
                StreamStage {
                    proc: 0,
                    stage_name: "front".into(),
                },
                StreamStage {
                    proc: 1,
                    stage_name: "db".into(),
                },
            ],
        }
    }

    /// `n` growing snapshots of one trivial stage: one context, one
    /// root node whose cycles grow by 100 per epoch.
    fn snapshots(proc: u32, name: &str, n: usize) -> Vec<StageDump> {
        (1..=n)
            .map(|e| StageDump {
                proc,
                stage_name: name.into(),
                frames: vec!["main".into()],
                contexts: vec![DumpContext::default()],
                ccts: vec![DumpCct {
                    ctx: 0,
                    nodes: vec![node(e as u64 * 100)],
                }],
                ..StageDump::default()
            })
            .collect()
    }

    pub(crate) fn batches_for(stage: usize, proc: u32, name: &str, n: usize) -> Vec<EpochBatch> {
        let snaps = snapshots(proc, name, n);
        (0..n)
            .map(|e| {
                let prev = if e == 0 { None } else { Some(&snaps[e - 1]) };
                let d = diff_dump(stage, e as u64, prev, &snaps[e]).expect("non-empty");
                EpochBatch {
                    epoch: e as u64,
                    seq: e as u64,
                    end: (e as u64 + 1) * 100,
                    deltas: vec![d],
                }
            })
            .collect()
    }

    pub(crate) fn flat_reference(n: usize) -> whodunit_core::pipeline::PipelineReport {
        let dumps = vec![
            snapshots(0, "front", n).pop().unwrap(),
            snapshots(1, "db", n).pop().unwrap(),
        ];
        whodunit_core::pipeline::analyze(dumps, Default::default())
    }

    pub(crate) fn run(
        fed: &mut Federation,
        epochs: usize,
        front: &[EpochBatch],
        db: &[EpochBatch],
        ticks_after: u64,
    ) {
        for e in 0..epochs {
            fed.feed(0, &front[e]);
            fed.feed(1, &db[e]);
            fed.tick();
        }
        for _ in 0..ticks_after {
            fed.tick();
        }
    }

    #[test]
    fn clean_two_leaf_run_matches_flat_pipeline() {
        let hdr = header2();
        let topo = vec![vec![vec![0], vec![1]]]; // one region, two leaves
        let mut fed = Federation::new(
            &hdr,
            &topo,
            FederationConfig::default(),
            Box::new(CleanLinks),
        );
        let n = 10;
        run(
            &mut fed,
            n,
            &batches_for(0, 0, "front", n),
            &batches_for(1, 1, "db", n),
            0,
        );
        let out = fed.finalize();
        assert_eq!(out.coverage_ppm, 1_000_000);
        assert!(out.degraded.is_empty());
        let flat = flat_reference(n);
        assert_eq!(out.output.report.fingerprint(), flat.fingerprint());
        assert_eq!(out.output.report.dumps_json, flat.dumps_json);
        assert_eq!(
            whodunit_core::oracle::check_federation(&out.evidence),
            vec![]
        );
        assert_eq!(out.evidence.root_mass, 2_000); // 2 stages × 10 epochs × 100
    }

    #[test]
    fn leaf_crash_recovers_from_checkpoint_with_zero_mass_loss() {
        let hdr = header2();
        let topo = vec![vec![vec![0]], vec![vec![1]]]; // two regions, one leaf each
        let mut fed = Federation::new(
            &hdr,
            &topo,
            FederationConfig::default(),
            Box::new(CleanLinks),
        );
        fed.crash(FedNodeId::Leaf(0), 9, Some(17));
        let n = 30;
        run(
            &mut fed,
            n,
            &batches_for(0, 0, "front", n),
            &batches_for(1, 1, "db", n),
            0,
        );
        let out = fed.finalize();
        assert_eq!(out.stats.crashes, 1);
        assert_eq!(out.stats.recoveries, 1);
        assert_eq!(out.coverage_ppm, 1_000_000, "recovery must lose no mass");
        assert!(out.degraded.is_empty());
        let rec = &out.recovery[0];
        assert!(rec.recovered_epoch.is_some(), "root must observe recovery");
        assert!(rec.recovered_epoch.unwrap() >= rec.crash_epoch);
        let flat = flat_reference(n);
        assert_eq!(out.output.report.fingerprint(), flat.fingerprint());
    }

    #[test]
    fn unrecoverable_leaf_finalizes_degraded_with_partial_coverage() {
        let hdr = header2();
        let topo = vec![vec![vec![0], vec![1]]];
        let mut cfg = FederationConfig::default();
        cfg.deadline_ticks = 64;
        let mut fed = Federation::new(&hdr, &topo, cfg, Box::new(CleanLinks));
        fed.crash(FedNodeId::Leaf(1), 13, None);
        let n = 30;
        run(
            &mut fed,
            n,
            &batches_for(0, 0, "front", n),
            &batches_for(1, 1, "db", n),
            0,
        );
        let out = fed.finalize();
        assert!(out.coverage_ppm < 1_000_000);
        assert_eq!(out.degraded, vec!["leaf1".to_string()]);
        assert!(out.evidence.subtrees[1].degraded);
        assert!(out.evidence.subtrees[1].delivered < out.evidence.subtrees[1].truth);
        let leaves = &out.topology.root.children[0].children;
        assert_eq!((leaves[0].degraded, leaves[1].degraded), (false, true));
        // The honest ledger passes the oracle even though mass is gone.
        assert_eq!(
            whodunit_core::oracle::check_federation(&out.evidence),
            vec![]
        );
    }

    #[test]
    #[should_panic(expected = "one batch per leaf")]
    fn feed_round_refuses_a_dead_leaf_named_twice() {
        let topo = vec![vec![vec![0], vec![1]]];
        let mut fed = Federation::new(
            &header2(),
            &topo,
            FederationConfig::default(),
            Box::new(CleanLinks),
        );
        fed.crash(FedNodeId::Leaf(1), 1, None);
        fed.tick();
        assert!(!fed.leaves[1].alive, "the planted crash fired");
        let db = batches_for(1, 1, "db", 2);
        fed.feed_round(&[(1, &db[0]), (1, &db[1])]);
    }

    /// Drops the first burst on link 0 (forcing RTO retries), then
    /// duplicates every 5th message and delays every 3rd.
    struct Lossy {
        n: u64,
        /// Messages offered on any link, shared with the test.
        offered: Rc<Cell<u64>>,
    }
    impl LinkPolicy for Lossy {
        fn verdict(&mut self, link: u32, _now: u64) -> LinkVerdict {
            self.offered.set(self.offered.get() + 1);
            if link != 0 {
                return LinkVerdict::default();
            }
            self.n += 1;
            match self.n {
                1..=4 => LinkVerdict { copies: 0, delay: 0 },
                n if n % 5 == 0 => LinkVerdict { copies: 2, delay: 0 },
                n if n % 3 == 0 => LinkVerdict { copies: 1, delay: 7 },
                _ => LinkVerdict::default(),
            }
        }
    }

    #[test]
    fn lossy_uplink_heals_through_retry_and_stays_byte_identical() {
        let hdr = header2();
        let topo = vec![vec![vec![0], vec![1]]];
        let offered = Rc::new(Cell::new(0));
        let mut fed = Federation::new(
            &hdr,
            &topo,
            FederationConfig::default(),
            Box::new(Lossy {
                n: 0,
                offered: offered.clone(),
            }),
        );
        let n = 20;
        run(
            &mut fed,
            n,
            &batches_for(0, 0, "front", n),
            &batches_for(1, 1, "db", n),
            0,
        );
        let out = fed.finalize();
        assert!(out.stats.frames_lost + out.stats.acks_lost > 0, "plan fired");
        assert!(out.stats.retransmits > 0, "losses forced retries");
        assert_eq!(
            out.stats.frames_sent + out.stats.retransmits + out.stats.acks_sent,
            offered.get(),
            "every message offered to a link is counted once, lost or not"
        );
        assert_eq!(out.coverage_ppm, 1_000_000);
        let flat = flat_reference(n);
        assert_eq!(out.output.report.fingerprint(), flat.fingerprint());
        assert_eq!(
            whodunit_core::oracle::check_federation(&out.evidence),
            vec![]
        );
    }

    #[test]
    fn regional_crash_recovers_without_loss() {
        let hdr = header2();
        let topo = vec![vec![vec![0], vec![1]]];
        let mut fed = Federation::new(
            &hdr,
            &topo,
            FederationConfig::default(),
            Box::new(CleanLinks),
        );
        fed.crash(FedNodeId::Regional(0), 11, Some(23));
        let n = 30;
        run(
            &mut fed,
            n,
            &batches_for(0, 0, "front", n),
            &batches_for(1, 1, "db", n),
            0,
        );
        let out = fed.finalize();
        assert_eq!(out.stats.recoveries, 1);
        assert_eq!(out.coverage_ppm, 1_000_000);
        let flat = flat_reference(n);
        assert_eq!(out.output.report.fingerprint(), flat.fingerprint());
    }

    thread_local! {
        /// Leaf checkpoints [`assert_checkpoint_is_a_clone`] has
        /// verified on this test thread.
        static CHECKED: Cell<u64> = const { Cell::new(0) };
    }

    /// Field-by-field equality of two leaf states (accumulators by the
    /// dump they reconstruct plus their expected seq). Exhaustive, so a
    /// new `LeafState` field cannot escape the comparison.
    fn assert_same_state(got: &LeafState, want: &LeafState, what: &str) {
        let LeafState {
            accs,
            pending,
            pending_events,
            out_seq,
            up,
            interval,
            end,
            sketches,
            interval_mass,
            gauges,
        } = got;
        assert_eq!(accs.len(), want.accs.len(), "{what}: accs");
        for (si, (a, b)) in accs.iter().zip(&want.accs).enumerate() {
            assert_eq!(a.next_seq(), b.next_seq(), "{what}: accs[{si}] seq");
            assert_eq!(a.to_dump(), b.to_dump(), "{what}: accs[{si}] dump");
        }
        assert_eq!(pending, &want.pending, "{what}: pending");
        assert_eq!(*pending_events, want.pending_events, "{what}: events");
        assert_eq!(out_seq, &want.out_seq, "{what}: out_seq");
        assert_eq!(up, &want.up, "{what}: uplink");
        assert_eq!(*interval, want.interval, "{what}: interval");
        assert_eq!(*end, want.end, "{what}: end");
        assert_eq!(sketches.len(), want.sketches.len(), "{what}: sketches");
        for (si, (a, b)) in sketches.iter().zip(&want.sketches).enumerate() {
            assert_eq!(a.count(), b.count(), "{what}: sketches[{si}] count");
            assert_eq!(a.to_wire(), b.to_wire(), "{what}: sketches[{si}]");
        }
        assert_eq!(*interval_mass, want.interval_mass, "{what}: mass");
        assert_eq!(*gauges, want.gauges, "{what}: gauges");
    }

    /// The checkpoint oracle, called by [`LeafNode::checkpoint`] in
    /// every unit test of this crate: what the journal replay left in
    /// `ckpt` must be what cloning the live state — the old checkpoint,
    /// alive only here — produces, and the journal must be spent.
    pub(super) fn assert_checkpoint_is_a_clone(l: &LeafNode) {
        let what = format!("leaf {} checkpoint {}", l.leaf_id, l.st.gauges.checkpoints);
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
                last.gauges.recoveries += 1;
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

    #[test]
    fn topology_view_reports_fan_in_and_liveness() {
        let hdr = header2();
        let topo = vec![vec![vec![0]], vec![vec![1]]];
        let mut fed = Federation::new(
            &hdr,
            &topo,
            FederationConfig::default(),
            Box::new(CleanLinks),
        );
        let n = 8;
        run(
            &mut fed,
            n,
            &batches_for(0, 0, "front", n),
            &batches_for(1, 1, "db", n),
            40,
        );
        let v = fed.topology_view();
        assert_eq!(v.root.children.len(), 2);
        assert_eq!(v.root.children[0].children.len(), 1);
        assert_eq!(v.coverage_ppm, 1_000_000);
        assert_eq!(v.root.mass, 1_600);
        assert!(v.root.children.iter().all(|r| r.alive));
    }
}
