//! Fault-tolerant collector federation: leaf → regional → global
//! aggregation of streaming profile deltas.
//!
//! A flat [`crate::Collector`] ingests every stage of a fleet
//! directly; at planet scale that is one process holding every
//! accumulator and every uplink. The federation splits the fleet
//! across many *leaf* nodes (one per rack/region slice of the stage
//! space), folds their compacted
//! [`SummaryFrame`](whodunit_core::summary::SummaryFrame)s through
//! *regional* aggregators, and applies the result at a single *global
//! root*. Whodunit stitches post mortem from complete per-stage dumps
//! (§5), so the root holds exactly that: one
//! [`StageAccumulator`] per header stage, and finalize is batch
//! `analyze` over their dumps. No snapshot is ever asked of the root,
//! so it runs none of the collector's incremental stitching. A clean
//! run delivers every stage's dump whole, so its final report is
//! **byte-identical** to the flat batch pipeline (the differential
//! suite holds the fingerprint lineage to it).
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
//!   them (a regional's parked frames are shared, so it copies
//!   pointers to those); a leaf's cumulative input accumulators are
//!   not, and its checkpoint advances them by replaying the redo
//!   journal of ops applied since the previous one (`Redo`,
//!   `LeafNode::log`) instead of copying them. A recovered node
//!   replays the spool tail verbatim (receivers dedup), and — for
//!   leaves — catches its *input* up from the emitter mirror the
//!   harness keeps for it while it is out of lockstep: a snapshot diff
//!   folded through the normal merge path, so no profile mass is lost.
//! - **Whole frames.** A link frame is the unit every receiver takes
//!   or refuses. A regional merges a child's frame only if each delta
//!   names a stage no other delta of the frame names, carries that
//!   stage's next seq and composes onto the pending increment; the
//!   root applies a frame through
//!   [`whodunit_core::delta::apply_frame`], which checks every delta
//!   before it mutates any accumulator. A refused frame is counted in
//!   `rejected_frames`, moves no ledger or mass, and leaves the link
//!   seq where it was — so refusal has one route at every hop:
//!   refuse → retry → deadline → degraded.
//! - **Honest degradation.** If a subtree stays unrecoverable past the
//!   finalize deadline, the root finalizes anyway: the missing mass is
//!   attributed to explicit per-subtree degraded markers and a coverage
//!   fraction, never silently dropped. The
//!   [`whodunit_core::oracle::check_federation`] oracle cross-checks
//!   the ledger against the root's actually-applied mass, and only an
//!   applied frame reaches either.
//!
//! This file is the harness: the public types, the link fabric's two
//! message kinds (a frame going up, an ack going down) and
//! [`Federation`], which owns the tree and the fault schedule. The
//! nodes live in `node.rs`: the one `Increment` a leaf and a regional
//! both merge into and flush, the leaf with its redo journal, the
//! regional and the root with its accumulators.

mod node;

use std::collections::BTreeMap;
use whodunit_core::delta::{EpochBatch, StageAccumulator, StreamHeader};
use whodunit_core::oracle::{ppm, FederationEvidence, SubtreeMass};
use whodunit_core::pipeline::{analyze, PipelineConfig};
use whodunit_core::summary::delta_mass;
use whodunit_report::live::{FedNodeView, FedTopologyView};

use crate::link::WireFrame;
use crate::{CollectorOutput, CollectorStats};
use node::{LeafNode, RegionalNode, RootNode};

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
        LinkVerdict {
            copies: 1,
            delay: 0,
        }
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
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            flush_every: 4,
            checkpoint_every: 8,
            deadline_ticks: 4096,
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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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
    /// In-order frames a receiver refused whole: a regional's for a
    /// delta that is out of its stage's sequence or does not merge
    /// onto the pending increment, the root's for one `apply_frame`
    /// refuses; either also for two deltas naming one stage.
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
    /// Batch `analyze` over the dumps the root accumulated. Its
    /// `stats.batches` and `stats.events` count the frames and change
    /// events the root applied; every other [`CollectorStats`] field
    /// is zero, since the root runs none of the collector's ingest or
    /// stitching.
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

/// One message in flight on the link fabric, named by the child end of
/// its link. Frames travel as the sealed [`whodunit_core::wire`] bytes
/// the sender spooled, decoded (and envelope-verified) at the receiving
/// end.
#[derive(Clone, Debug)]
enum FedMsg {
    /// A frame going up from `from` to its parent's receive slot.
    Frame { from: FedNodeId, bytes: WireFrame },
    /// A cumulative ack going down to `to`.
    Ack { to: FedNodeId, upto: u64 },
}

/// The federation harness: owns the tree, the virtual link fabric, the
/// emitter mirror and ground truth (for resync and coverage), and the
/// planned fault schedule. Drive it with [`Federation::feed`] and
/// [`Federation::tick`], then [`Federation::finalize`].
pub struct Federation {
    cfg: FederationConfig,
    leaves: Vec<LeafNode>,
    regions: Vec<RegionalNode>,
    root: RootNode,
    /// The emitter mirror, per leaf out of lockstep: what the emitters
    /// of the leaf's stages hold, parallel to its stage list, serving
    /// its input catch-up. A leaf in lockstep — one that has taken
    /// every batch fed to it whole — holds exactly that in its own
    /// accumulators, so it needs none. A leaf leaves lockstep when it
    /// crashes, or when a test hands it other input than the clean
    /// stream (`diverge`); its mirror then starts as a copy of its
    /// accumulators, advances with each clean delta of a stage it
    /// owns, and is spent by the catch-up that brings it back.
    mirrors: BTreeMap<usize, Vec<StageAccumulator>>,
    /// Ground-truth profile mass fed per leaf.
    truth: Vec<u64>,
    /// Last input epoch fed per leaf.
    truth_epoch: Vec<u64>,
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
        let n_leaves: usize = topology.iter().map(Vec::len).sum();
        let mut owned = vec![false; header.stages.len()];
        let mut leaves = Vec::new();
        let mut regions = Vec::new();
        for (r, leaf_specs) in topology.iter().enumerate() {
            let mut children = Vec::new();
            let mut region_stages = Vec::new();
            for (slot, spec) in leaf_specs.iter().enumerate() {
                let leaf_id = leaves.len() as u32;
                let mut stages = spec.clone();
                stages.sort_unstable();
                for &gs in &stages {
                    assert!(gs < header.stages.len(), "stage {gs} out of range");
                    assert!(!owned[gs], "stage {gs} owned by two leaves");
                    owned[gs] = true;
                }
                region_stages.extend_from_slice(&stages);
                leaves.push(LeafNode::new(leaf_id, r, slot, stages, header));
                children.push(leaf_id);
            }
            region_stages.sort_unstable();
            let src = (n_leaves + r) as u32;
            regions.push(RegionalNode::new(r, src, children, region_stages));
        }
        assert!(
            owned.iter().all(|&o| o),
            "every header stage must be owned by a leaf"
        );
        Federation {
            mirrors: BTreeMap::new(),
            truth: vec![0; n_leaves],
            truth_epoch: vec![0; n_leaves],
            cfg,
            leaves,
            root: RootNode::new(header, regions.len()),
            regions,
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
    /// ground-truth ledger, and the leaf's emitter mirror if it is out
    /// of lockstep; the leaf itself only ingests while alive (missed
    /// input is recovered through the resync path, or honestly
    /// reported as missing coverage).
    ///
    /// `batch` is the emitters' clean stream: panics if a leaf in
    /// lockstep refuses any of it.
    pub fn feed(&mut self, leaf: usize, batch: &EpochBatch) {
        if self.feed_truth(leaf, batch) {
            let l = &mut self.leaves[leaf];
            l.ingest(batch, &mut self.stats);
            assert!(
                !l.need_resync || self.mirrors.contains_key(&leaf),
                "leaf {leaf} in lockstep refused the clean stream"
            );
        }
    }

    /// Takes `leaf` out of lockstep, before it crashes or takes other
    /// input than the clean stream: its accumulators, which hold what
    /// the emitters of its stages hold, seed its emitter mirror. A leaf
    /// already out of lockstep keeps the mirror it has.
    fn diverge(&mut self, leaf: usize) {
        let l = &self.leaves[leaf];
        self.mirrors
            .entry(leaf)
            .or_insert_with(|| l.accs().to_vec());
    }

    /// The part of a feed that happens whether or not the leaf is up:
    /// ground truth, emitter mirror, and liveness. Returns whether the
    /// leaf should actually ingest. A delta for a stage the leaf does
    /// not own counts in its truth, but is not the stage's stream and
    /// stays out of the mirror.
    fn feed_truth(&mut self, leaf: usize, batch: &EpochBatch) -> bool {
        let mass: u64 = batch.deltas.iter().map(delta_mass).sum();
        self.truth[leaf] += mass;
        self.truth_epoch[leaf] = self.truth_epoch[leaf].max(batch.epoch);
        if let Some(mirror) = self.mirrors.get_mut(&leaf) {
            let owner = &self.leaves[leaf];
            for d in &batch.deltas {
                if let Some(si) = owner.slot(d.stage) {
                    mirror[si]
                        .apply(d)
                        .expect("the emitters' clean stream applies");
                }
            }
        }
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
    /// policy for its fate, and queues the surviving copies. Leaf `i`'s
    /// link is `i`, regional `r`'s is `leaf_count + r`.
    fn enqueue_msg(&mut self, msg: FedMsg) {
        let (node, lost) = match &msg {
            FedMsg::Frame { from, bytes } => {
                *match from {
                    FedNodeId::Leaf(_) => &mut self.stats.leaf_link_wire_bytes,
                    FedNodeId::Regional(_) => &mut self.stats.regional_link_wire_bytes,
                } += bytes.len() as u64;
                (*from, &mut self.stats.frames_lost)
            }
            FedMsg::Ack { to, .. } => {
                self.stats.acks_sent += 1;
                (*to, &mut self.stats.acks_lost)
            }
        };
        let link = match node {
            FedNodeId::Leaf(i) => i,
            FedNodeId::Regional(r) => self.leaves.len() + r,
        };
        let v = self.policy.verdict(link as u32, self.now);
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
        let mut crashes = std::mem::take(&mut self.crashes);
        for c in &mut crashes {
            if !c.fired && c.at == now {
                c.fired = true;
                self.stats.crashes += 1;
                match c.node {
                    FedNodeId::Leaf(i) => {
                        self.diverge(i);
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
            } else if c.fired && !c.recovered && c.recover_at == Some(now) {
                c.recovered = true;
                self.stats.recoveries += 1;
                match c.node {
                    FedNodeId::Leaf(i) => self.leaves[i].recover(now),
                    FedNodeId::Regional(i) => self.regions[i].recover(now),
                }
            }
        }
        self.crashes = crashes;

        // 2. Input resync for leaves that need it (recovery or damage),
        //    which spends their mirrors.
        for (i, mirror) in std::mem::take(&mut self.mirrors) {
            let l = &mut self.leaves[i];
            if l.alive && l.need_resync {
                l.catchup(mirror, self.truth_epoch[i], &mut self.stats);
            } else {
                self.mirrors.insert(i, mirror);
            }
        }

        // 3. Flush on cadence (leaves first, then regionals).
        if now.is_multiple_of(self.cfg.flush_every) {
            for l in self.leaves.iter_mut().filter(|l| l.alive) {
                l.st.inc.flush(l.leaf_id, &mut l.st.up, &mut self.stats);
            }
            for r in self.regions.iter_mut().filter(|r| r.alive) {
                r.st.inc.flush(r.src, &mut r.st.up, &mut self.stats);
            }
        }

        // 4. Checkpoint on cadence; regional checkpoints release acks.
        let mut outbox = Vec::new();
        if now.is_multiple_of(self.cfg.checkpoint_every) {
            for l in self.leaves.iter_mut().filter(|l| l.alive) {
                l.checkpoint(&mut self.stats);
            }
            for r in self.regions.iter_mut().filter(|r| r.alive) {
                for (leaf, upto) in r.checkpoint(&mut self.stats) {
                    let to = FedNodeId::Leaf(leaf);
                    outbox.push(FedMsg::Ack { to, upto });
                }
            }
        }

        // 5. Pump senders (first-sends of gated frames + RTO retries).
        for (i, l) in self.leaves.iter_mut().enumerate().filter(|(_, l)| l.alive) {
            for bytes in l.snd.pump(&l.st.up, now, &mut self.stats) {
                let from = FedNodeId::Leaf(i);
                outbox.push(FedMsg::Frame { from, bytes });
            }
        }
        for (r, reg) in self.regions.iter_mut().enumerate().filter(|(_, r)| r.alive) {
            for bytes in reg.snd.pump(&reg.st.up, now, &mut self.stats) {
                let from = FedNodeId::Regional(r);
                outbox.push(FedMsg::Frame { from, bytes });
            }
        }
        for msg in outbox {
            self.enqueue_msg(msg);
        }

        // 6. Deliver due messages (acks generated here land next tick).
        let mut acks_out = Vec::new();
        while let Some((&key, _)) = self.queue.first_key_value() {
            if key.0 > now {
                break;
            }
            match self.queue.remove(&key).expect("key just observed") {
                FedMsg::Frame { from, bytes } => {
                    let ack = match from {
                        FedNodeId::Leaf(i) => {
                            let l = &self.leaves[i];
                            let r = &mut self.regions[l.region];
                            if !r.alive {
                                self.stats.dropped_to_dead += 1;
                                continue;
                            }
                            r.on_frame(l.child_slot, &bytes, &mut self.stats)
                        }
                        FedNodeId::Regional(r) => self.root.on_frame(r, &bytes, &mut self.stats),
                    };
                    if let Some(upto) = ack {
                        acks_out.push(FedMsg::Ack { to: from, upto });
                    }
                }
                FedMsg::Ack { to, upto } => {
                    let (alive, snd, up) = match to {
                        FedNodeId::Leaf(i) => {
                            let l = &mut self.leaves[i];
                            (l.alive, &mut l.snd, &mut l.st.up)
                        }
                        FedNodeId::Regional(r) => {
                            let r = &mut self.regions[r];
                            (r.alive, &mut r.snd, &mut r.st.up)
                        }
                    };
                    if alive {
                        snd.on_ack(up, upto, now);
                    } else {
                        self.stats.dropped_to_dead += 1;
                    }
                }
            }
        }
        for msg in acks_out {
            self.enqueue_msg(msg);
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
            let g = self.root.ledger.gauges.get(&(rec.leaf as u32));
            if let Some(g) = g.filter(|g| g.recoveries > 0 && g.last_epoch >= rec.crash_epoch) {
                rec.recovered_epoch.get_or_insert(g.last_epoch);
            }
        }
    }

    /// Whether every live node has shipped and settled everything it
    /// holds (dead nodes excepted — their mass is the degraded story).
    fn quiesced(&self) -> bool {
        self.queue.is_empty()
            && self.leaves.iter().all(|l| {
                !l.alive
                    || (l.st.inc.interval.is_none() && l.st.up.spool_len() == 0 && !l.need_resync)
            })
            && self.regions.iter().all(|r| {
                !r.alive
                    || (r.st.inc.interval.is_none()
                        && r.st.up.spool_len() == 0
                        && r.st.rx.iter().all(|x| x.parked_len() == 0))
            })
    }

    /// Mass the root has been delivered from leaf `leaf`'s subtree.
    fn delivered(&self, leaf: u32) -> u64 {
        self.root.ledger.mass.get(&leaf).copied().unwrap_or(0)
    }

    /// Delivered/truth coverage in parts-per-million at this instant.
    pub fn coverage_ppm(&self) -> u64 {
        let delivered: u64 = self.root.ledger.mass.values().sum();
        let truth: u64 = self.truth.iter().sum();
        ppm(delivered, truth)
    }

    /// The operator's topology view at this instant: per-level fan-in,
    /// lag, liveness, and the root's per-subtree delivery ledger.
    pub fn topology_view(&self) -> FedTopologyView {
        let gauges = &self.root.ledger.gauges;
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
                last_epoch: r
                    .st
                    .inc
                    .ledger
                    .gauges
                    .values()
                    .fold(0, |e, g| e.max(g.last_epoch)),
                mass: r.children.iter().map(|&l| self.delivered(l)).sum(),
                recoveries: 0,
                children: r
                    .children
                    .iter()
                    .map(|&lid| {
                        let g = gauges.get(&lid).copied().unwrap_or_default();
                        FedNodeView {
                            label: format!("leaf{lid}"),
                            alive: self.leaves[lid as usize].alive,
                            degraded: !self.leaves[lid as usize].alive,
                            lag_frames: g.lag_frames,
                            last_epoch: g.last_epoch,
                            mass: self.delivered(lid),
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
                mass: self.root.mass(),
                recoveries: 0,
                children,
            },
            coverage_ppm: self.coverage_ppm(),
            epoch: self.root.max_epoch,
        }
    }

    /// Drains the tree (up to the configured deadline), marks whatever
    /// is still missing as degraded, and analyzes the dumps the root
    /// accumulated.
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
            let delivered = self.delivered(i as u32);
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
            root_mass: self.root.mass(),
            reported_coverage_ppm: coverage_ppm,
        };
        // Only the root's accumulators reach `analyze`: the leaves,
        // regionals, queued frames and mirrors go before it runs.
        let accs = std::mem::take(&mut self.root.accs);
        let batches = self.root.frames_applied;
        let stats = std::mem::take(&mut self.stats);
        let recovery = std::mem::take(&mut self.recovery_log);
        drop(self);
        let dumps = accs.into_iter().map(StageAccumulator::into_dump);
        let output = CollectorOutput {
            report: analyze(dumps.collect(), PipelineConfig::default()),
            stats: CollectorStats {
                batches,
                events: stats.root_events_applied,
                ..CollectorStats::default()
            },
        };
        FederationOutput {
            output,
            coverage_ppm,
            degraded,
            evidence,
            stats,
            topology,
            recovery,
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
    pub(crate) fn snapshots(proc: u32, name: &str, n: usize) -> Vec<StageDump> {
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
        let cfg = FederationConfig {
            deadline_ticks: 64,
            ..FederationConfig::default()
        };
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
        let down = fed.mirrors.keys().collect::<Vec<_>>();
        assert_eq!(down, [&1], "a leaf that stays down keeps its mirror");
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

    /// A leaf in lockstep needs no mirror, lossy links or not. Its
    /// crash seeds one from the live accumulators, because the
    /// recovery restores a checkpoint that misses the journal: here
    /// the leaf is fed nothing while down, and the two epochs it took
    /// after its last checkpoint come back only through that mirror.
    /// The catch-up spends it.
    #[test]
    fn a_crash_seeds_the_only_mirror_and_the_catchup_spends_it() {
        let hdr = header2();
        let topo = vec![vec![vec![0], vec![1]]];
        let offered = Rc::new(Cell::new(0));
        let policy = Box::new(Lossy { n: 0, offered });
        let mut fed = Federation::new(&hdr, &topo, FederationConfig::default(), policy);
        // Checkpoints at ticks 8 and 16; epochs 8 and 9 are fed after
        // the first, and the leaf is down for tick 11 only.
        fed.crash(FedNodeId::Leaf(0), 11, Some(12));
        let n = 20;
        let (front, db) = (batches_for(0, 0, "front", n), batches_for(1, 1, "db", n));
        for e in 0..n {
            if e == 10 {
                fed.tick();
                assert!(!fed.leaves[0].alive);
                assert_eq!(fed.mirrors.keys().collect::<Vec<_>>(), [&0]);
                fed.tick();
                assert!(fed.leaves[0].alive && fed.mirrors.is_empty());
            }
            fed.feed(0, &front[e]);
            fed.feed(1, &db[e]);
            fed.tick();
            assert!(fed.mirrors.is_empty(), "epoch {e}: a mirror in lockstep");
        }
        let out = fed.finalize();
        assert!(out.stats.frames_lost > 0 && out.stats.retransmits > 0);
        assert_eq!((out.stats.recoveries, out.stats.input_resyncs), (1, 1));
        assert_eq!(out.stats.missed_batches, 0);
        assert_eq!(
            out.coverage_ppm, 1_000_000,
            "the journal's epochs came back"
        );
        let flat = flat_reference(n);
        assert_eq!(out.output.report.fingerprint(), flat.fingerprint());
    }

    /// `feed` hands a leaf the emitters' own stream, so a leaf in
    /// lockstep that refuses it has no mirror to catch up from: the
    /// harness says so at once instead of at the next tick.
    #[test]
    #[should_panic(expected = "leaf 1 in lockstep refused the clean stream")]
    fn a_leaf_in_lockstep_refusing_its_feed_panics() {
        let topo = vec![vec![vec![0], vec![1]]];
        let mut fed = Federation::new(
            &header2(),
            &topo,
            FederationConfig::default(),
            Box::new(CleanLinks),
        );
        let mut db = batches_for(1, 1, "db", 1).remove(0);
        db.deltas[0].checksum ^= 1;
        fed.feed(1, &db);
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
                1..=4 => LinkVerdict {
                    copies: 0,
                    delay: 0,
                },
                n if n % 5 == 0 => LinkVerdict {
                    copies: 2,
                    delay: 0,
                },
                n if n % 3 == 0 => LinkVerdict {
                    copies: 1,
                    delay: 7,
                },
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
        assert!(
            out.stats.frames_lost + out.stats.acks_lost > 0,
            "plan fired"
        );
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
