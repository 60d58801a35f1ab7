//! Streaming profile deltas: the wire format between live stages and
//! the online collector tier.
//!
//! Batch Whodunit gathers one [`StageDump`] per stage at end-of-run and
//! stitches post mortem. The streaming path instead emits, once per
//! virtual-time *epoch*, the increment of every stage's profile state
//! since the previous epoch. The increments exploit the monotone
//! structure of a live Whodunit instance:
//!
//! - `frames` and `contexts` are intern tables — append-only, so a
//!   delta carries only the new tail;
//! - `synopses` are minted at most once per context — a delta carries
//!   only newly minted `(raw, ctx)` pairs;
//! - CCT node lists are append-only and per-node metrics only grow — a
//!   delta carries new nodes plus `(node, Δsamples, Δcycles, Δcalls)`
//!   for grown existing nodes;
//! - crosstalk aggregates and the piggyback counters are monotone sums
//!   — a delta carries keyed increments.
//!
//! [`diff_dump`] computes the increment between two snapshots of the
//! same stage (asserting the monotone structure), and
//! [`StageAccumulator`] replays increments back into a [`StageDump`]
//! that is **equal, field for field, to the snapshot it mirrors** — the
//! foundation of the streaming-vs-batch byte-identity lock: a collector
//! that has applied every delta can reproduce the exact dumps the batch
//! pipeline would have read from disk.
//!
//! Every delta carries a per-stage sequence number and an FNV-1a
//! checksum (via [`crate::hash`], lane-wise over 64-bit words — the
//! checksum is computed once per delta at the emitter and verified once
//! at the collector, squarely on the ingest hot path) so a collector
//! can detect gaps and corruption rather than silently diverging.

use crate::hash::FnvLanes;
use crate::stitch::{
    remap_synopsis, DumpAtom, DumpCct, DumpContext, DumpCrosstalkPair, DumpCrosstalkWaiter,
    DumpNode, StageDump,
};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Identity of one stage in a delta stream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StreamStage {
    /// Process id (matches [`StageDump::proc`]).
    pub proc: u32,
    /// Stage name (matches [`StageDump::stage_name`]).
    pub stage_name: String,
}

/// Announces the fixed set of stages a delta stream will carry.
///
/// Emitted once, before the first [`EpochBatch`]. Stage indices in
/// [`StageDelta::stage`] refer to positions in [`StreamHeader::stages`],
/// which follow the same order as `Sim::collect_dumps`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct StreamHeader {
    /// The stages, in dump order.
    pub stages: Vec<StreamStage>,
}

impl StreamHeader {
    /// A copy with every process id passed through `map` (ids the map
    /// declines are kept). Mirrors [`StageDump::with_remapped_proc`]
    /// for fleet replication of recorded streams.
    pub fn with_remapped_proc(&self, map: &dyn Fn(u32) -> Option<u32>) -> StreamHeader {
        StreamHeader {
            stages: self
                .stages
                .iter()
                .map(|s| StreamStage {
                    proc: map(s.proc).unwrap_or(s.proc),
                    stage_name: s.stage_name.clone(),
                })
                .collect(),
        }
    }
}

/// Increment of one context's CCT since the previous epoch.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CctDelta {
    /// Context index this CCT is annotated with.
    pub ctx: u32,
    /// Number of nodes the CCT had at the previous epoch (0 for a CCT
    /// first seen in this delta).
    pub nodes_before: u32,
    /// Nodes appended since (structure plus their current metrics).
    pub new_nodes: Vec<DumpNode>,
    /// `(node index, Δsamples, Δcycles, Δcalls)` for pre-existing
    /// nodes whose metrics grew.
    pub grown: Vec<(u32, u64, u64, u64)>,
}

/// Increment of one stage's profile state over one epoch.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct StageDelta {
    /// Index into [`StreamHeader::stages`].
    pub stage: usize,
    /// Per-stage sequence number, starting at 0, no gaps.
    pub seq: u64,
    /// Newly interned frame names (appended to the stage's table),
    /// shared with every table they are appended to.
    pub new_frames: Vec<Arc<str>>,
    /// Newly interned contexts (appended to the stage's table).
    pub new_contexts: Vec<DumpContext>,
    /// Newly minted `(raw synopsis, context index)` pairs.
    pub new_synopses: Vec<(u64, u32)>,
    /// CCT increments, sorted by context index.
    pub ccts: Vec<CctDelta>,
    /// Crosstalk pair increments: `count`/`total_wait` are the deltas.
    pub pairs: Vec<DumpCrosstalkPair>,
    /// Crosstalk waiter increments: `count`/`total_wait` are deltas.
    pub waiters: Vec<DumpCrosstalkWaiter>,
    /// Piggyback bytes sent this epoch.
    pub piggyback_bytes: u64,
    /// Piggybacked messages sent this epoch.
    pub messages: u64,
    /// FNV-1a checksum over the content above (see
    /// [`StageDelta::compute_checksum`]).
    pub checksum: u64,
}

impl StageDelta {
    /// Whether the delta carries no change at all.
    pub fn is_empty(&self) -> bool {
        self.new_frames.is_empty()
            && self.new_contexts.is_empty()
            && self.new_synopses.is_empty()
            && self.ccts.is_empty()
            && self.pairs.is_empty()
            && self.waiters.is_empty()
            && self.piggyback_bytes == 0
            && self.messages == 0
    }

    /// Number of individual change events the delta carries (used for
    /// ingest-rate accounting).
    pub fn events(&self) -> u64 {
        (self.new_frames.len()
            + self.new_contexts.len()
            + self.new_synopses.len()
            + self
                .ccts
                .iter()
                .map(|c| c.new_nodes.len() + c.grown.len())
                .sum::<usize>()
            + self.pairs.len()
            + self.waiters.len()) as u64
    }

    /// The lane-wise FNV-1a digest of the delta's content (everything
    /// except the stored `checksum` field itself). Strings are hashed
    /// as zero-padded little-endian lanes behind an explicit length
    /// word, so padding cannot alias content.
    pub fn compute_checksum(&self) -> u64 {
        let mut h = FnvLanes::new();
        h.write_u64(self.stage as u64);
        h.write_u64(self.seq);
        h.write_u64(self.new_frames.len() as u64);
        for f in &self.new_frames {
            h.write_u64(f.len() as u64);
            h.write_bytes(f.as_bytes());
        }
        h.write_u64(self.new_contexts.len() as u64);
        for c in &self.new_contexts {
            h.write_u64(c.atoms.len() as u64);
            for a in c.atoms.iter() {
                match a {
                    DumpAtom::Frame(f) => {
                        h.write_u64(1);
                        h.write_u64(*f as u64);
                    }
                    DumpAtom::Path(p) => {
                        h.write_u64(2);
                        h.write_u64(p.len() as u64);
                        for f in p {
                            h.write_u64(*f as u64);
                        }
                    }
                    DumpAtom::Remote(r) => {
                        h.write_u64(3);
                        h.write_u64(r.len() as u64);
                        for s in r {
                            h.write_u64(*s);
                        }
                    }
                }
            }
        }
        h.write_u64(self.new_synopses.len() as u64);
        for &(raw, ctx) in &self.new_synopses {
            h.write_u64(raw);
            h.write_u64(ctx as u64);
        }
        h.write_u64(self.ccts.len() as u64);
        for c in &self.ccts {
            h.write_u64(c.ctx as u64);
            h.write_u64(c.nodes_before as u64);
            h.write_u64(c.new_nodes.len() as u64);
            for n in &c.new_nodes {
                // Option<u32> encoded as value+1 (None -> 0).
                h.write_u64(n.frame.map_or(0, |f| f as u64 + 1));
                h.write_u64(n.parent.map_or(0, |p| p as u64 + 1));
                h.write_u64(n.samples);
                h.write_u64(n.cycles);
                h.write_u64(n.calls);
            }
            h.write_u64(c.grown.len() as u64);
            for &(node, s, cy, ca) in &c.grown {
                h.write_u64(node as u64);
                h.write_u64(s);
                h.write_u64(cy);
                h.write_u64(ca);
            }
        }
        h.write_u64(self.pairs.len() as u64);
        for p in &self.pairs {
            h.write_u64(p.waiter as u64);
            h.write_u64(p.holder as u64);
            h.write_u64(p.count);
            h.write_u64(p.total_wait);
        }
        h.write_u64(self.waiters.len() as u64);
        for w in &self.waiters {
            h.write_u64(w.waiter as u64);
            h.write_u64(w.count);
            h.write_u64(w.total_wait);
        }
        h.write_u64(self.piggyback_bytes);
        h.write_u64(self.messages);
        h.finish()
    }

    /// Whether the delta is in canonical form: `ccts` strictly ascending
    /// by context, each CCT's `grown` rows strictly ascending by node,
    /// `pairs` by `(waiter, holder)` and `waiters` by waiter. Every
    /// emitter produces this form, so a list out of order or repeating
    /// a key is refused, never repaired: the wire decoder, the
    /// accumulator and the summary merge all call this one check.
    pub fn check_order(&self) -> Result<(), &'static str> {
        fn ascending<T, K: Ord>(rows: &[T], key: impl Fn(&T) -> K) -> bool {
            rows.windows(2)
                .all(|w| matches!(w, [x, y] if key(x) < key(y)))
        }
        if !ascending(&self.ccts, |c| c.ctx) {
            return Err("CCT ctx column not strictly increasing");
        }
        if !self.ccts.iter().all(|c| ascending(&c.grown, |g| g.0)) {
            return Err("CCT growth rows not strictly increasing by node");
        }
        if !ascending(&self.pairs, |p| (p.waiter, p.holder)) {
            return Err("crosstalk pairs not strictly increasing");
        }
        if !ascending(&self.waiters, |w| w.waiter) {
            return Err("crosstalk waiters not strictly increasing");
        }
        Ok(())
    }

    /// Stores the checksum the content implies.
    pub fn seal(&mut self) {
        self.checksum = self.compute_checksum();
    }

    /// A copy with stage index `stage` and every raw synopsis value's
    /// embedded process id passed through `map` (both newly minted
    /// synopses and `Remote` chains inside new contexts), with the
    /// checksum recomputed. Mirrors [`StageDump::with_remapped_proc`]
    /// so a recorded single-fleet stream can be replicated into many
    /// disjoint process-id ranges.
    pub fn with_remapped_proc(&self, stage: usize, map: &dyn Fn(u32) -> Option<u32>) -> StageDelta {
        let mut d = self.clone();
        d.stage = stage;
        for (raw, _) in &mut d.new_synopses {
            *raw = remap_synopsis(*raw, map);
        }
        for c in &mut d.new_contexts {
            *c = c.with_remapped_proc(map);
        }
        d.seal();
        d
    }
}

/// All stage deltas of one virtual-time epoch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EpochBatch {
    /// Epoch index, starting at 0.
    pub epoch: u64,
    /// Global batch sequence number, starting at 0, no gaps.
    pub seq: u64,
    /// Virtual time (cycles) at the end of the epoch.
    pub end: u64,
    /// Per-stage increments; stages with no change are omitted.
    pub deltas: Vec<StageDelta>,
}

impl EpochBatch {
    /// Total change events across all stage deltas.
    pub fn events(&self) -> u64 {
        self.deltas.iter().map(|d| d.events()).sum()
    }
}

/// A [`StageDelta`] whose wire frame stored no checksum at all.
///
/// The encoder elides a checksum exactly when it equals
/// [`StageDelta::compute_checksum`] of the content, so for such a delta
/// the canonical value is *implied*: hashing the content to fill the
/// field in and hashing it again to compare the field with itself
/// proves nothing, and [`StageAccumulator::apply_unsealed`] does
/// neither (a summary frame's deltas have the field filled in, as the
/// frame's own checksum folds it in, and are still not compared).
/// Holding one is the vouch that this is the case, and only
/// the wire decoder — which saw the frame — can make one; a struct
/// anybody else holds goes through [`StageAccumulator::apply`] and has
/// its stored checksum compared.
#[derive(Clone, Copy, Debug)]
pub struct Unsealed<'a>(&'a StageDelta);

/// A copy of a delta that an accumulator took through the verifying
/// [`StageAccumulator::apply`], stored checksum compared with the
/// content. Only [`StageAccumulator::apply_kept`] makes one, so holding
/// one is the vouch that the compare is done, and
/// [`StageAccumulator::replay`] runs every other check of `apply` on a
/// second accumulator without hashing the content again (a leaf's redo
/// journal, replayed onto its checkpoint).
#[derive(Debug)]
pub struct Compared(StageDelta);

/// A borrowed delta on its way into an accumulator, and which `apply`
/// it is due.
#[derive(Clone, Copy, Debug)]
pub enum Incoming<'a> {
    /// A struct that carries its own checksum, which is compared with
    /// the content: every delta that never was bytes, and every delta
    /// of a frame that stored any checksum.
    Sealed(&'a StageDelta),
    /// A delta the wire decoder vouches for. Its `checksum` field is a
    /// placeholder in a batch, and the implied value in a summary frame
    /// ([`crate::summary::IncomingSummary`]); it is never compared.
    Unsealed(Unsealed<'a>),
}

impl<'a> Incoming<'a> {
    /// `d` as a decoder that read it vouches for it: unsealed when its
    /// frame stored no checksum.
    pub(crate) fn vouched(d: &'a StageDelta, unsealed: bool) -> Self {
        if unsealed {
            Incoming::Unsealed(Unsealed(d))
        } else {
            Incoming::Sealed(d)
        }
    }

    /// Whether the delta's checksum matches its content: compared for
    /// a sealed delta, implied for an unsealed one.
    pub fn verify(self) -> bool {
        match self {
            Incoming::Sealed(d) => d.compute_checksum() == d.checksum,
            Incoming::Unsealed(_) => true,
        }
    }

    /// The delta's content.
    pub fn delta(self) -> &'a StageDelta {
        match self {
            Incoming::Sealed(d) | Incoming::Unsealed(Unsealed(d)) => d,
        }
    }

    /// [`StageAccumulator::apply`] or
    /// [`StageAccumulator::apply_unsealed`], as the delta is due.
    pub fn apply_to(self, acc: &mut StageAccumulator) -> Result<(), DeltaError> {
        match self {
            Incoming::Sealed(d) => acc.apply(d),
            Incoming::Unsealed(u) => acc.apply_unsealed(u),
        }
    }

    /// An owned copy for a holder that outlives the borrow (the
    /// collector's reorder buffer): an unsealed delta gets its real
    /// checksum, so the copy equals what [`crate::wire::decode_batch`]
    /// returns for the same bytes and passes the verifying `apply`.
    pub fn seal(self) -> StageDelta {
        let mut d = self.delta().clone();
        if let Incoming::Unsealed(_) = self {
            d.seal();
        }
        d
    }
}

/// An [`EpochBatch`] on its way into accumulators, and which `apply`
/// its deltas are due ([`IncomingBatch::deltas`]). A wire frame that
/// stored no checksum at all — the canonical case, every clean frame —
/// comes out of [`crate::wire::BatchDecoder::decode`] *unsealed*: its
/// deltas are applied without ever being hashed. Every other batch is
/// sealed: a struct batch (`From<EpochBatch>`), and a frame that stored
/// any checksum, whose other deltas then have theirs filled in.
#[derive(Debug)]
pub struct IncomingBatch {
    pub(crate) batch: EpochBatch,
    pub(crate) unsealed: bool,
}

impl From<EpochBatch> for IncomingBatch {
    fn from(batch: EpochBatch) -> Self {
        IncomingBatch {
            batch,
            unsealed: false,
        }
    }
}

impl IncomingBatch {
    /// The batch. Where [`IncomingBatch::deltas`] yields
    /// [`Incoming::Unsealed`], the `checksum` fields are placeholders.
    pub fn batch(&self) -> &EpochBatch {
        &self.batch
    }

    /// The deltas, each under the `apply` it is due.
    pub fn deltas(&self) -> impl Iterator<Item = Incoming<'_>> {
        let unsealed = self.unsealed;
        self.batch
            .deltas
            .iter()
            .map(move |d| Incoming::vouched(d, unsealed))
    }

    /// The plain struct batch, implied checksums filled in.
    pub fn seal(mut self) -> EpochBatch {
        if self.unsealed {
            self.batch.deltas.iter_mut().for_each(StageDelta::seal);
        }
        self.batch
    }
}

/// Receiver of a delta stream.
///
/// `Sim::run_streaming` drives one of these: `on_start` once with the
/// fixed stage set, then `on_batch` once per epoch in order.
pub trait DeltaSink {
    /// Called once before any batch with the stream's stage set.
    fn on_start(&mut self, header: &StreamHeader);
    /// Called once per epoch, in epoch order.
    fn on_batch(&mut self, batch: EpochBatch);
}

/// A [`DeltaSink`] that records the stream verbatim, for replay.
#[derive(Default, Debug, Clone)]
pub struct RecordingSink {
    /// The stream header (set by `on_start`).
    pub header: StreamHeader,
    /// Every batch, in arrival order.
    pub batches: Vec<EpochBatch>,
}

impl DeltaSink for RecordingSink {
    fn on_start(&mut self, header: &StreamHeader) {
        self.header = header.clone();
    }
    fn on_batch(&mut self, batch: EpochBatch) {
        self.batches.push(batch);
    }
}

/// Emitter-side snapshot provider for bounded resync.
///
/// When a collector quarantines a corrupt frame or detects a sequence
/// hole it cannot heal from its reorder buffer, it asks the emitter for
/// the stage's *current cumulative state* instead of giving the stage
/// up. The snapshot plus the sequence horizon it covers let the
/// collector build a catch-up delta ([`StageAccumulator::catchup_delta`])
/// and resume the live stream mid-run. Snapshots are outside input: one
/// that does not extend the collector's state is refused, not trusted.
pub trait ResyncSource {
    /// The emitter's current cumulative dump for `stage`, plus the
    /// sequence number of the next delta the emitter will produce for
    /// that stage (i.e. how many deltas the snapshot subsumes).
    /// `None` if the source cannot serve this stage.
    fn snapshot(&self, stage: usize) -> Option<(StageDump, u64)>;
}

/// A [`ResyncSource`] built by replaying a recorded clean stream in
/// lockstep with the consumer.
///
/// Tests drive [`RecordedResync::advance`] with each batch as (or
/// before) the collector ingests its possibly-damaged twin; a resync
/// query then observes exactly the state the live emitter would hold at
/// that point.
#[derive(Debug)]
pub struct RecordedResync {
    accs: Vec<StageAccumulator>,
}

impl RecordedResync {
    /// A source with no history yet for the stages in `header`.
    pub fn new(header: &StreamHeader) -> Self {
        RecordedResync {
            accs: header.stages.iter().map(StageAccumulator::new).collect(),
        }
    }

    /// Folds one clean batch into the emitter-side state.
    ///
    /// Panics on any apply error: the recorded stream is the undamaged
    /// reference, so it must always apply.
    pub fn advance(&mut self, batch: &EpochBatch) {
        for d in &batch.deltas {
            self.accs[d.stage]
                .apply(d)
                .expect("recorded reference stream must be clean");
        }
    }
}

impl ResyncSource for RecordedResync {
    fn snapshot(&self, stage: usize) -> Option<(StageDump, u64)> {
        let acc = self.accs.get(stage)?;
        Some((acc.to_dump(), acc.next_seq()))
    }
}

/// Computes the increment from snapshot `prev` to snapshot `cur` of
/// the same stage, or `None` if nothing changed.
///
/// Pass `prev = None` for the first epoch (the whole snapshot is new).
/// Panics if the snapshots violate the monotone structure documented
/// on the module (shrinking intern tables, mutated nodes, decreasing
/// counters): such a pair cannot come from one live stage, so a loud
/// failure at the emitter beats a silent divergence at the collector.
pub fn diff_dump(
    stage: usize,
    seq: u64,
    prev: Option<&StageDump>,
    cur: &StageDump,
) -> Option<StageDelta> {
    try_diff_dump(stage, seq, prev, cur).unwrap_or_else(|e| panic!("{e}"))
}

/// [`diff_dump`] with every monotonicity violation returned as a
/// [`DeltaError::Inconsistent`] instead of a panic, for a `cur` that
/// comes from outside the program (a [`ResyncSource`] snapshot).
fn try_diff_dump(
    stage: usize,
    seq: u64,
    prev: Option<&StageDump>,
    cur: &StageDump,
) -> Result<Option<StageDelta>, DeltaError> {
    let incon = |what| DeltaError::Inconsistent { stage, what };
    let ensure = |ok: bool, what| ok.then_some(()).ok_or(incon(what));
    let grew = |new: u64, old: u64, what| new.checked_sub(old).ok_or(incon(what));
    let empty = StageDump::default();
    let prev = prev.unwrap_or(&empty);
    ensure(
        cur.frames.starts_with(&prev.frames),
        "frame table is not an append-only extension",
    )?;
    ensure(
        cur.contexts.starts_with(&prev.contexts),
        "context table is not an append-only extension",
    )?;

    // Synopses: sorted by ctx in both snapshots, one per ctx, minted
    // once; new entries may interleave anywhere in ctx order.
    let mut new_synopses = Vec::new();
    {
        let mut pi = prev.synopses.iter().peekable();
        for &(raw, ctx) in &cur.synopses {
            match pi.peek() {
                Some(&&(praw, pctx)) if pctx == ctx => {
                    ensure(praw == raw, "a minted synopsis changed")?;
                    pi.next();
                }
                _ => new_synopses.push((raw, ctx)),
            }
        }
        ensure(pi.next().is_none(), "a minted synopsis disappeared")?;
    }

    // CCTs: sorted by ctx in both snapshots; node lists append-only,
    // metrics monotone.
    let mut ccts = Vec::new();
    {
        let mut pi = prev.ccts.iter().peekable();
        for c in &cur.ccts {
            let old: &[DumpNode] = match pi.next_if(|p| p.ctx == c.ctx) {
                Some(p) => &p.nodes,
                None => &[],
            };
            ensure(old.len() <= c.nodes.len(), "a CCT shrank")?;
            let mut grown = Vec::new();
            for (i, (o, n)) in old.iter().zip(&c.nodes).enumerate() {
                ensure(
                    o.frame == n.frame && o.parent == n.parent,
                    "CCT node structure mutated",
                )?;
                let (ds, dc, da) = (
                    grew(n.samples, o.samples, "samples decreased")?,
                    grew(n.cycles, o.cycles, "cycles decreased")?,
                    grew(n.calls, o.calls, "calls decreased")?,
                );
                if ds != 0 || dc != 0 || da != 0 {
                    grown.push((i as u32, ds, dc, da));
                }
            }
            let new_nodes = c.nodes[old.len()..].to_vec();
            if !new_nodes.is_empty() || !grown.is_empty() {
                ccts.push(CctDelta {
                    ctx: c.ctx,
                    nodes_before: old.len() as u32,
                    new_nodes,
                    grown,
                });
            }
        }
        ensure(pi.next().is_none(), "a CCT disappeared")?;
    }

    // Crosstalk: keyed aggregates, sorted, monotone.
    let mut pairs = Vec::new();
    {
        let mut pi = prev.crosstalk_pairs.iter().peekable();
        for p in &cur.crosstalk_pairs {
            let (oc, ow) = match pi.next_if(|o| (o.waiter, o.holder) == (p.waiter, p.holder)) {
                Some(o) => (o.count, o.total_wait),
                None => (0, 0),
            };
            let dc = grew(p.count, oc, "pair count decreased")?;
            let dw = grew(p.total_wait, ow, "pair wait decreased")?;
            if dc != 0 || dw != 0 {
                pairs.push(DumpCrosstalkPair {
                    waiter: p.waiter,
                    holder: p.holder,
                    count: dc,
                    total_wait: dw,
                });
            }
        }
        ensure(pi.next().is_none(), "a crosstalk pair disappeared")?;
    }
    let mut waiters = Vec::new();
    {
        let mut pi = prev.crosstalk_waiters.iter().peekable();
        for w in &cur.crosstalk_waiters {
            let (oc, ow) = match pi.next_if(|o| o.waiter == w.waiter) {
                Some(o) => (o.count, o.total_wait),
                None => (0, 0),
            };
            let dc = grew(w.count, oc, "waiter count decreased")?;
            let dw = grew(w.total_wait, ow, "waiter wait decreased")?;
            if dc != 0 || dw != 0 {
                waiters.push(DumpCrosstalkWaiter {
                    waiter: w.waiter,
                    count: dc,
                    total_wait: dw,
                });
            }
        }
        ensure(pi.next().is_none(), "a crosstalk waiter disappeared")?;
    }

    let mut d = StageDelta {
        stage,
        seq,
        new_frames: cur.frames[prev.frames.len()..].to_vec(),
        new_contexts: cur.contexts[prev.contexts.len()..].to_vec(),
        new_synopses,
        ccts,
        pairs,
        waiters,
        piggyback_bytes: grew(
            cur.piggyback_bytes,
            prev.piggyback_bytes,
            "piggyback_bytes decreased",
        )?,
        messages: grew(cur.messages, prev.messages, "messages decreased")?,
        checksum: 0,
    };
    if d.is_empty() {
        return Ok(None);
    }
    d.seal();
    Ok(Some(d))
}

/// Why a delta could not be applied.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DeltaError {
    /// The delta's stored checksum does not match its content.
    Checksum {
        /// Stage index of the offending delta.
        stage: usize,
        /// Sequence number of the offending delta.
        seq: u64,
    },
    /// The delta's sequence number is not the next expected one.
    SeqGap {
        /// Stage index of the offending delta.
        stage: usize,
        /// The sequence number the accumulator expected.
        expected: u64,
        /// The sequence number the delta carried.
        got: u64,
    },
    /// The delta references state the accumulator does not have (e.g.
    /// a CCT baseline of the wrong size) — the stream is corrupt or
    /// deltas were applied out of order.
    Inconsistent {
        /// Stage index of the offending delta.
        stage: usize,
        /// What was inconsistent.
        what: &'static str,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Checksum { stage, seq } => {
                write!(f, "stage {stage} delta seq {seq}: checksum mismatch")
            }
            DeltaError::SeqGap {
                stage,
                expected,
                got,
            } => write!(
                f,
                "stage {stage}: delta sequence gap (expected {expected}, got {got})"
            ),
            DeltaError::Inconsistent { stage, what } => {
                write!(f, "stage {stage}: inconsistent delta: {what}")
            }
        }
    }
}

/// Whether no raw synopsis and no context appears twice among one
/// delta's mints. A repeat would leave [`StageAccumulator::to_dump`]
/// (one synopsis per context) short of what an index built from the
/// delta itself holds, so the two could resolve a chain differently.
fn distinct_mints(mints: &[(u64, u32)]) -> bool {
    if mints.len() < 2 {
        return true;
    }
    let mut sorted = mints.to_vec();
    sorted.sort_unstable();
    if sorted.windows(2).any(|w| w[0].0 == w[1].0) {
        return false;
    }
    sorted.sort_unstable_by_key(|m| m.1);
    sorted.windows(2).all(|w| w[0].1 != w[1].1)
}

/// Replays [`StageDelta`]s back into the exact [`StageDump`] the
/// emitting stage would snapshot.
///
/// Per-context state (CCTs, synopses) is held in dense arrays indexed
/// by context id — context ids are intern indices, so index order *is*
/// the dump's documented ctx sort order, with no tree or hash lookup on
/// the apply path. Crosstalk keys are sparse and stay in `BTreeMap`s.
/// Either way [`StageAccumulator::to_dump`] is equal to the source
/// snapshot after every applied delta — and therefore byte-identical
/// under [`crate::dumpjson`] serialization.
#[derive(Clone, Debug, Default)]
pub struct StageAccumulator {
    /// Process id (from the stream header).
    pub proc: u32,
    /// Stage name (from the stream header).
    pub stage_name: String,
    /// Interned frame names so far.
    pub frames: Vec<Arc<str>>,
    /// Interned contexts so far.
    pub contexts: Vec<DumpContext>,
    /// Per context id: its CCT node list, if one has accumulated.
    ccts: Vec<Option<Vec<DumpNode>>>,
    /// Per context id: its minted synopsis, if any.
    synopses: Vec<Option<u64>>,
    pairs: BTreeMap<(u32, u32), (u64, u64)>,
    waiters: BTreeMap<u32, (u64, u64)>,
    piggyback_bytes: u64,
    messages: u64,
    next_seq: u64,
    mass: u64,
    pair_wait: u64,
}

impl StageAccumulator {
    /// An empty accumulator for the stage identified by `header`.
    pub fn new(header: &StreamStage) -> Self {
        StageAccumulator {
            proc: header.proc,
            stage_name: header.stage_name.clone(),
            frames: Vec::new(),
            contexts: Vec::new(),
            ccts: Vec::new(),
            synopses: Vec::new(),
            pairs: BTreeMap::new(),
            waiters: BTreeMap::new(),
            piggyback_bytes: 0,
            messages: 0,
            next_seq: 0,
            mass: 0,
            pair_wait: 0,
        }
    }

    /// The next per-stage sequence number this accumulator expects.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of contexts interned so far.
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// The CCT cycles accumulated so far: the sum of every node's
    /// cycles in [`StageAccumulator::to_dump`], kept as deltas commit.
    pub fn mass(&self) -> u64 {
        self.mass
    }

    /// The crosstalk-pair wait accumulated so far: the sum of every
    /// pair's `total_wait` in [`StageAccumulator::to_dump`] (waiter rows
    /// are not counted), kept as deltas commit.
    pub fn pair_wait(&self) -> u64 {
        self.pair_wait
    }

    /// The CCT node list for `ctx`, if one has accumulated.
    pub fn cct_nodes(&self, ctx: u32) -> Option<&[DumpNode]> {
        self.ccts.get(ctx as usize).and_then(|v| v.as_deref())
    }

    /// Applies one delta, or rejects it leaving the accumulator
    /// untouched: sequence number, checksum, keyed baselines and every
    /// condition [`StageDump::validate`] checks are verified against
    /// the state plus the delta's own new frames and contexts before
    /// anything mutates. By induction, an accumulator that only ever
    /// returned `Ok` holds a [`StageAccumulator::to_dump`] that
    /// validates.
    pub fn apply(&mut self, d: &StageDelta) -> Result<(), DeltaError> {
        self.apply_inner(d, true)
    }

    /// [`StageAccumulator::apply`] for a delta whose frame stored no
    /// checksum: every check but the comparison of the implied
    /// checksum with itself, so the content is never hashed.
    pub fn apply_unsealed(&mut self, d: Unsealed<'_>) -> Result<(), DeltaError> {
        self.apply_inner(d.0, false)
    }

    /// [`StageAccumulator::apply`], and on success a copy of `d` vouched
    /// as [`Compared`] for [`StageAccumulator::replay`].
    pub fn apply_kept(&mut self, d: &StageDelta) -> Result<Compared, DeltaError> {
        self.apply(d)?;
        Ok(Compared(d.clone()))
    }

    /// Applies a delta another accumulator took through `apply`: every
    /// check but the checksum compare that `apply` has made.
    pub fn replay(&mut self, d: &Compared) -> Result<(), DeltaError> {
        self.apply_inner(&d.0, false)
    }

    // `check` and `commit` are inlined into their two callers: as
    // calls, the benchmark's `ingest_wide` (one apply per delta) ran
    // ≈ 2.6 % slower on a 2-core host than the single body they were
    // split from.
    fn apply_inner(&mut self, d: &StageDelta, stored_checksum: bool) -> Result<(), DeltaError> {
        self.check(d, stored_checksum)?;
        self.commit(d);
        Ok(())
    }

    /// `apply`'s checks of `d` against the state as it stands, with no
    /// mutation.
    #[inline(always)]
    fn check(&self, d: &StageDelta, stored_checksum: bool) -> Result<(), DeltaError> {
        if d.seq != self.next_seq {
            return Err(DeltaError::SeqGap {
                stage: d.stage,
                expected: self.next_seq,
                got: d.seq,
            });
        }
        if stored_checksum && d.compute_checksum() != d.checksum {
            return Err(DeltaError::Checksum {
                stage: d.stage,
                seq: d.seq,
            });
        }
        let incon = |what| DeltaError::Inconsistent {
            stage: d.stage,
            what,
        };
        let frames = self.frames.len() + d.new_frames.len();
        let contexts = self.contexts.len() + d.new_contexts.len();
        let mut new_contexts = d.new_contexts.iter();
        if new_contexts.any(|c| c.check_frames(frames).is_err()) {
            return Err(incon("context atom names an unknown frame"));
        }
        // One CCT per context: a repeated id would have both entries
        // checked against the same pre-state baseline and both appended.
        d.check_order().map_err(incon)?;
        for c in &d.ccts {
            if c.ctx as usize >= contexts {
                return Err(incon("CCT labeled with an unknown context"));
            }
            let have = self.cct_nodes(c.ctx).map_or(0, |n| n.len());
            if have != c.nodes_before as usize {
                return Err(incon("CCT baseline size mismatch"));
            }
            // Rows ascend, so the last names the highest node.
            if c.grown.last().is_some_and(|&(i, ..)| i as usize >= have) {
                return Err(incon("CCT growth targets a missing node"));
            }
            let mut new = c.new_nodes.iter().enumerate();
            if new.any(|(k, n)| n.link(have + k).is_err()) {
                return Err(incon("CCT node lacks a frame or a preceding parent"));
            }
        }
        for &(_, ctx) in &d.new_synopses {
            if ctx as usize >= contexts {
                return Err(incon("synopsis minted for an unknown context"));
            }
            if self.synopses.get(ctx as usize).copied().flatten().is_some() {
                return Err(incon("synopsis re-minted for a context"));
            }
        }
        if !distinct_mints(&d.new_synopses) {
            return Err(incon("synopsis minted twice in one delta"));
        }
        Ok(())
    }

    /// `apply`'s mutation, of a delta [`StageAccumulator::check`]
    /// passed against this very state.
    #[inline(always)]
    fn commit(&mut self, d: &StageDelta) {
        let contexts = self.contexts.len() + d.new_contexts.len();
        self.frames.extend(d.new_frames.iter().cloned());
        self.contexts.extend(d.new_contexts.iter().cloned());
        // The dense per-context tables are sized by the intern table,
        // never by an index a frame chose (all checked `< contexts`).
        self.synopses.resize(contexts, None);
        self.ccts.resize_with(contexts, || None);
        for &(raw, ctx) in &d.new_synopses {
            self.synopses[ctx as usize] = Some(raw);
        }
        let mut mass = 0;
        for c in &d.ccts {
            let nodes = self.ccts[c.ctx as usize].get_or_insert_with(Vec::new);
            for &(i, s, cy, ca) in &c.grown {
                let n = &mut nodes[i as usize];
                n.samples += s;
                n.cycles += cy;
                n.calls += ca;
                mass += cy;
            }
            mass += c.new_nodes.iter().map(|n| n.cycles).sum::<u64>();
            nodes.extend(c.new_nodes.iter().copied());
        }
        self.mass += mass;
        for p in &d.pairs {
            let e = self.pairs.entry((p.waiter, p.holder)).or_insert((0, 0));
            e.0 += p.count;
            e.1 += p.total_wait;
            self.pair_wait += p.total_wait;
        }
        for w in &d.waiters {
            let e = self.waiters.entry(w.waiter).or_insert((0, 0));
            e.0 += w.count;
            e.1 += w.total_wait;
        }
        self.piggyback_bytes += d.piggyback_bytes;
        self.messages += d.messages;
        self.next_seq += 1;
    }

    /// Fast-forwards the expected sequence number after a resync.
    ///
    /// A resync snapshot covers every delta the emitter produced up to
    /// some sequence horizon; once the snapshot is folded in, the
    /// accumulator must expect the emitter's *next live* delta rather
    /// than the ones the snapshot subsumed. Panics if asked to move
    /// backwards — that would re-apply already-counted increments.
    pub fn set_next_seq(&mut self, next: u64) {
        assert!(
            next >= self.next_seq,
            "stage seq cannot rewind: {} -> {next}",
            self.next_seq
        );
        self.next_seq = next;
    }

    /// The synthetic catch-up delta from this accumulator's state to
    /// an emitter-side `snapshot` of the same stage, or `None` if the
    /// accumulator is already caught up.
    ///
    /// The delta is stamped with the accumulator's own next sequence
    /// number so it flows through [`StageAccumulator::apply`] — and
    /// therefore through a collector's normal ingest path — unchanged.
    /// `Err` if `snapshot` is not a monotone extension of the
    /// accumulated state — snapshots come from outside the program;
    /// `apply` is transactional, so any accumulator fed a prefix of a
    /// clean stream is a valid base for an honest one.
    pub fn catchup_delta(
        &self,
        stage: usize,
        snapshot: &StageDump,
    ) -> Result<Option<StageDelta>, DeltaError> {
        try_diff_dump(stage, self.next_seq, Some(&self.to_dump()), snapshot)
    }

    /// The dump this accumulator's state reconstructs.
    pub fn to_dump(&self) -> StageDump {
        self.clone().into_dump()
    }

    /// [`StageAccumulator::to_dump`] for a caller done accumulating:
    /// the frame and context tables and every CCT node list move into
    /// the dump instead of being copied.
    pub fn into_dump(self) -> StageDump {
        StageDump {
            proc: self.proc,
            stage_name: self.stage_name,
            frames: self.frames,
            contexts: self.contexts,
            ccts: self
                .ccts
                .into_iter()
                .enumerate()
                .filter_map(|(ctx, nodes)| {
                    nodes.map(|nodes| DumpCct {
                        ctx: ctx as u32,
                        nodes,
                    })
                })
                .collect(),
            synopses: self
                .synopses
                .iter()
                .enumerate()
                .filter_map(|(ctx, raw)| raw.map(|raw| (raw, ctx as u32)))
                .collect(),
            crosstalk_pairs: self
                .pairs
                .iter()
                .map(
                    |(&(waiter, holder), &(count, total_wait))| DumpCrosstalkPair {
                        waiter,
                        holder,
                        count,
                        total_wait,
                    },
                )
                .collect(),
            crosstalk_waiters: self
                .waiters
                .iter()
                .map(|(&waiter, &(count, total_wait))| DumpCrosstalkWaiter {
                    waiter,
                    count,
                    total_wait,
                })
                .collect(),
            piggyback_bytes: self.piggyback_bytes,
            messages: self.messages,
        }
    }
}

/// The first stage a frame's deltas name out of turn, if any. A sender
/// lists its deltas by strictly ascending stage, so a frame naming a
/// stage twice, or below one it already named, is refused.
pub fn stage_out_of_turn(stages: impl Iterator<Item = usize> + Clone) -> Option<usize> {
    let mut pairs = stages.clone().zip(stages.skip(1));
    pairs.find_map(|(a, b)| (a >= b).then_some(b))
}

/// Applies one frame's `deltas` to `accs`, the accumulators of every
/// header stage indexed by stage, whole or not at all. The frame is
/// refused before anything mutates if its deltas do not strictly ascend
/// by stage, a delta names a stage outside the header, or any delta
/// fails the checks of the `apply` it is due ([`Incoming::apply_to`]).
/// With every stage named once, checking each delta against the state
/// before the frame is checking it as `apply` would, one delta at a
/// time.
#[deny(clippy::indexing_slicing)]
pub fn apply_frame<'a>(
    accs: &mut [StageAccumulator],
    deltas: impl Iterator<Item = Incoming<'a>> + Clone,
) -> Result<(), DeltaError> {
    if let Some(stage) = stage_out_of_turn(deltas.clone().map(|d| d.delta().stage)) {
        let what = "a frame's deltas do not strictly ascend by stage";
        return Err(DeltaError::Inconsistent { stage, what });
    }
    for d in deltas.clone() {
        let (d, stored_checksum) = match d {
            Incoming::Sealed(d) => (d, true),
            Incoming::Unsealed(Unsealed(d)) => (d, false),
        };
        let Some(acc) = accs.get(d.stage) else {
            let what = "stage outside the header";
            return Err(DeltaError::Inconsistent {
                stage: d.stage,
                what,
            });
        };
        acc.check(d, stored_checksum)?;
    }
    // Every stage was checked in range above.
    for d in deltas.map(Incoming::delta) {
        if let Some(acc) = accs.get_mut(d.stage) {
            acc.commit(d);
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A checksum-valid delta whose CCT list names ctx 1 twice, the
    /// second time with fewer new nodes — shared with the wire tests.
    pub(crate) fn dup_ctx_delta() -> StageDelta {
        let node = |parent: Option<u32>, cycles: u64| DumpNode {
            frame: parent,
            parent,
            samples: cycles / 100,
            cycles,
            calls: 1,
        };
        let cct = |new_nodes: Vec<DumpNode>| CctDelta {
            ctx: 1,
            nodes_before: 0,
            new_nodes,
            grown: vec![],
        };
        let mut d = StageDelta {
            stage: 0,
            seq: 0,
            new_frames: vec![],
            new_contexts: vec![],
            new_synopses: vec![],
            ccts: vec![
                cct(vec![node(None, 100), node(Some(0), 200)]),
                cct(vec![node(None, 300)]),
            ],
            pairs: vec![],
            waiters: vec![],
            piggyback_bytes: 0,
            messages: 0,
            checksum: 0,
        };
        d.checksum = d.compute_checksum();
        d
    }

    fn base_dump() -> StageDump {
        StageDump {
            proc: 1,
            stage_name: "app".into(),
            frames: vec!["main".into(), "handle".into()],
            contexts: vec![
                DumpContext {
                    atoms: vec![].into(),
                },
                DumpContext {
                    atoms: vec![DumpAtom::Frame(1)].into(),
                },
            ],
            ccts: vec![DumpCct {
                ctx: 1,
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
                        parent: Some(0),
                        samples: 3,
                        cycles: 300,
                        calls: 1,
                    },
                ],
            }],
            synopses: vec![(0x0100_0001, 1)],
            crosstalk_pairs: vec![DumpCrosstalkPair {
                waiter: 1,
                holder: 0,
                count: 2,
                total_wait: 50,
            }],
            crosstalk_waiters: vec![DumpCrosstalkWaiter {
                waiter: 1,
                count: 4,
                total_wait: 50,
            }],
            piggyback_bytes: 8,
            messages: 2,
        }
    }

    fn grown_dump() -> StageDump {
        let mut d = base_dump();
        d.frames.push("query".into());
        d.contexts.push(DumpContext {
            atoms: vec![DumpAtom::Remote(vec![0x0100_0001])].into(),
        });
        // Existing CCT grows a node and existing node metrics grow.
        d.ccts[0].nodes[1].samples += 2;
        d.ccts[0].nodes[1].cycles += 120;
        d.ccts[0].nodes.push(DumpNode {
            frame: Some(2),
            parent: Some(1),
            samples: 1,
            cycles: 40,
            calls: 1,
        });
        // A new CCT for an earlier context id than any new one.
        d.ccts.insert(
            0,
            DumpCct {
                ctx: 0,
                nodes: vec![DumpNode {
                    frame: None,
                    parent: None,
                    samples: 1,
                    cycles: 10,
                    calls: 0,
                }],
            },
        );
        // A synopsis minted for the new context (ctx 2 > ctx 1).
        d.synopses.push((0x0100_0002, 2));
        d.crosstalk_pairs[0].count += 1;
        d.crosstalk_pairs[0].total_wait += 25;
        d.crosstalk_waiters.push(DumpCrosstalkWaiter {
            waiter: 2,
            count: 1,
            total_wait: 0,
        });
        d.piggyback_bytes += 4;
        d.messages += 1;
        d
    }

    fn header() -> StreamStage {
        StreamStage {
            proc: 1,
            stage_name: "app".into(),
        }
    }

    #[test]
    fn diff_apply_roundtrip() {
        let a = base_dump();
        let b = grown_dump();
        let d0 = diff_dump(0, 0, None, &a).expect("first delta is non-empty");
        let d1 = diff_dump(0, 1, Some(&a), &b).expect("growth delta is non-empty");
        let mut acc = StageAccumulator::new(&header());
        acc.apply(&d0).unwrap();
        assert_eq!(acc.to_dump(), a);
        acc.apply(&d1).unwrap();
        assert_eq!(acc.to_dump(), b);
    }

    #[test]
    fn apply_frame_applies_a_frame_whole_or_not_at_all() {
        let (a, b) = (base_dump(), grown_dump());
        let first = |stage| diff_dump(stage, 0, None, &a).expect("non-empty");
        let growth = diff_dump(1, 1, Some(&a), &b).expect("non-empty");
        let fresh = || vec![StageAccumulator::new(&header()); 2];
        let mut damaged = first(1);
        damaged.checksum ^= 1;
        let mut outside = first(1);
        outside.stage = 2;
        outside.seal();
        for (frame, why) in [
            (vec![first(0), damaged], "checksum mismatch"),
            (vec![first(0), outside], "stage outside the header"),
            (
                vec![first(0), first(1), growth.clone()],
                "do not strictly ascend by stage",
            ),
            (vec![first(1), first(0)], "do not strictly ascend by stage"),
        ] {
            let mut accs = fresh();
            let err = apply_frame(&mut accs, frame.iter().map(Incoming::Sealed));
            let err = err.unwrap_err().to_string();
            assert!(err.contains(why), "{err}");
            assert!(accs
                .iter()
                .all(|acc| acc.next_seq() == 0 && acc.frames.is_empty()));
        }
        let mut accs = fresh();
        let mut sealed =
            |frame: &[StageDelta]| apply_frame(&mut accs, frame.iter().map(Incoming::Sealed));
        sealed(&[first(0), first(1)]).unwrap();
        sealed(&[growth]).unwrap();
        assert_eq!((accs[0].to_dump(), accs[1].to_dump()), (a, b));
    }

    #[test]
    fn unchanged_snapshot_yields_no_delta() {
        let a = base_dump();
        assert!(diff_dump(0, 1, Some(&a), &a).is_none());
    }

    #[test]
    fn checksum_detects_corruption() {
        let a = base_dump();
        let mut d = diff_dump(0, 0, None, &a).unwrap();
        d.piggyback_bytes += 1;
        let mut acc = StageAccumulator::new(&header());
        assert!(matches!(
            acc.apply(&d),
            Err(DeltaError::Checksum { stage: 0, seq: 0 })
        ));
    }

    #[test]
    fn seq_gap_detected() {
        let a = base_dump();
        let d = diff_dump(0, 3, None, &a).unwrap();
        let mut acc = StageAccumulator::new(&header());
        assert!(matches!(
            acc.apply(&d),
            Err(DeltaError::SeqGap {
                stage: 0,
                expected: 0,
                got: 3
            })
        ));
    }

    #[test]
    fn unsorted_cct_ctx_is_rejected_before_any_mutation() {
        // Both entries would pass the baseline check against the same
        // pre-state and both be appended: invented mass.
        let dup = dup_ctx_delta();
        let mut descending = dup.clone();
        descending.ccts[0].ctx = 2;
        descending.checksum = descending.compute_checksum();
        for d in [dup, descending] {
            let mut acc = StageAccumulator::new(&header());
            assert_eq!(
                acc.apply(&d),
                Err(DeltaError::Inconsistent {
                    stage: 0,
                    what: "CCT ctx column not strictly increasing"
                })
            );
            assert_eq!(acc.to_dump(), StageAccumulator::new(&header()).to_dump());
            assert_eq!(acc.next_seq(), 0);
        }
    }

    #[test]
    fn whatever_validate_rejects_apply_rejects_before_any_mutation() {
        let a = base_dump();
        let b = grown_dump();
        let d0 = diff_dump(0, 0, None, &a).unwrap();
        let good = diff_dump(0, 1, Some(&a), &b).unwrap();
        type Damage = fn(&mut StageDelta);
        const NODE: &str = "CCT node lacks a frame or a preceding parent";
        const ATOM: &str = "context atom names an unknown frame";
        const TWICE: &str = "synopsis minted twice in one delta";
        const PAIRS: &str = "crosstalk pairs not strictly increasing";
        const WAITERS: &str = "crosstalk waiters not strictly increasing";
        let cases: [(Damage, &str); 13] = [
            (|d| d.ccts[1].new_nodes[0].parent = Some(2), NODE),
            (|d| d.ccts[1].new_nodes[0].parent = None, NODE),
            (|d| d.ccts[1].new_nodes[0].frame = None, NODE),
            (|d| d.ccts[1].ctx = 3, "CCT labeled with an unknown context"),
            (
                |d| Arc::make_mut(&mut d.new_contexts[0].atoms)[0] = DumpAtom::Frame(3),
                ATOM,
            ),
            (
                |d| {
                    let c = &mut d.new_contexts[0];
                    c.atoms = [&c.atoms[..], &[DumpAtom::Path(vec![0, 3])]]
                        .concat()
                        .into();
                },
                ATOM,
            ),
            (
                |d| d.new_synopses[0].1 = 3,
                "synopsis minted for an unknown context",
            ),
            (|d| d.new_synopses.push((0x0100_0003, 2)), TWICE),
            (|d| d.new_synopses.push((0x0100_0002, 0)), TWICE),
            // A keyed list out of canonical order (`check_order`).
            (|d| d.pairs.push(d.pairs[0]), PAIRS),
            (|d| d.waiters.push(d.waiters[0]), WAITERS),
            (|d| d.waiters.push(DumpCrosstalkWaiter::default()), WAITERS),
            (
                |d| d.ccts[1].grown.push((0, 0, 5, 0)),
                "CCT growth rows not strictly increasing by node",
            ),
        ];
        for (damage, what) in cases {
            let mut acc = StageAccumulator::new(&header());
            acc.apply(&d0).unwrap();
            let mut d = good.clone();
            damage(&mut d);
            d.checksum = d.compute_checksum();
            let refused = DeltaError::Inconsistent { stage: 0, what };
            let totals = (acc.mass(), acc.pair_wait());
            assert_eq!(acc.apply(&d), Err(refused));
            assert_eq!(acc.to_dump(), a, "{what}");
            assert_eq!((acc.mass(), acc.pair_wait()), totals, "{what}");
            // The same delta undamaged still applies, and validates.
            acc.apply(&good).unwrap();
            assert_eq!(acc.to_dump().validate(), Ok(()));
        }
    }

    /// `mass()` and `pair_wait()` against the sums over `to_dump()`.
    fn assert_totals(acc: &StageAccumulator, what: &str) {
        let dump = acc.to_dump();
        let nodes = dump.ccts.iter().flat_map(|c| &c.nodes);
        let mass = nodes.map(|n| n.cycles).sum::<u64>();
        let wait = dump.crosstalk_pairs.iter().map(|p| p.total_wait).sum();
        assert_eq!((acc.mass(), acc.pair_wait()), (mass, wait), "{what}");
    }

    /// After every apply, accepted or refused, by every door (`apply`,
    /// an unsealed delta, a catch-up, a `replay`, a whole frame), the
    /// running totals are the sums over the dump.
    #[test]
    fn the_running_totals_are_the_sums_over_the_dump() {
        let (a, b) = (base_dump(), grown_dump());
        let d0 = diff_dump(0, 0, None, &a).unwrap();
        let d1 = diff_dump(0, 1, Some(&a), &b).unwrap();
        let mut acc = StageAccumulator::new(&header());
        assert_totals(&acc, "empty");
        acc.apply(&d0).unwrap();
        assert_totals(&acc, "first delta");
        assert_eq!((acc.mass(), acc.pair_wait()), (300, 50));
        let mut damaged = d1.clone();
        damaged.checksum ^= 1;
        assert!(acc.apply(&damaged).is_err());
        assert!(acc.apply(&d0).is_err());
        assert_totals(&acc, "refused");
        assert_eq!((acc.mass(), acc.pair_wait()), (300, 50));
        // The verifying apply keeps its delta; a replay of it elsewhere
        // adds the same.
        let kept = acc.apply_kept(&d1).unwrap();
        assert_totals(&acc, "kept");
        assert_eq!((acc.mass(), acc.pair_wait()), (470, 75));
        let mut replayed = StageAccumulator::new(&header());
        replayed.apply(&d0).unwrap();
        replayed.replay(&kept).unwrap();
        assert_totals(&replayed, "replay");
        assert!(replayed.replay(&kept).is_err());
        assert_totals(&replayed, "refused replay");
        // A catch-up over the lost growth delta.
        let mut caught = StageAccumulator::new(&header());
        caught.apply(&d0).unwrap();
        let cd = caught.catchup_delta(0, &b).unwrap().expect("behind");
        caught.apply(&cd).unwrap();
        assert_totals(&caught, "catch-up");
        let mut unsealed = StageAccumulator::new(&header());
        Incoming::vouched(&d0, true)
            .apply_to(&mut unsealed)
            .unwrap();
        assert_totals(&unsealed, "unsealed");
        // Whole frames: a refused one adds nothing to any stage.
        let mut accs = vec![StageAccumulator::new(&header()); 2];
        let first = |stage| diff_dump(stage, 0, None, &a).unwrap();
        let mut bad = first(1);
        bad.checksum ^= 1;
        let frame = [first(0), bad];
        assert!(apply_frame(&mut accs, frame.iter().map(Incoming::Sealed)).is_err());
        let frame = [first(0), first(1)];
        apply_frame(&mut accs, frame.iter().map(Incoming::Sealed)).unwrap();
        for (si, acc) in accs.iter().enumerate() {
            assert_totals(acc, &format!("frame, stage {si}"));
        }
        assert_eq!(accs[1].mass(), 300);
    }

    #[test]
    fn remap_proc_tracks_dump_remap() {
        let b = grown_dump();
        let map = |p: u32| if p == 1 { Some(7) } else { None };
        let d = diff_dump(0, 0, None, &b)
            .unwrap()
            .with_remapped_proc(5, &map);
        let mut acc = StageAccumulator::new(&StreamStage {
            proc: 7,
            stage_name: "app".into(),
        });
        acc.apply(&d).unwrap();
        assert_eq!(acc.to_dump(), b.with_remapped_proc(&map));
        assert_eq!(d.stage, 5);
    }

    #[test]
    fn remap_proc_copies_only_the_contexts_it_rewrites() {
        let b = grown_dump();
        let d = diff_dump(0, 0, None, &b).unwrap();
        // The delta's contexts are the dump's, shared.
        let shared = |x: &[DumpContext], y: &[DumpContext]| {
            x.iter()
                .zip(y)
                .map(|(x, y)| Arc::ptr_eq(&x.atoms, &y.atoms))
                .collect::<Vec<_>>()
        };
        assert_eq!(shared(&d.new_contexts, &b.contexts), [true, true, true]);
        let moved = d.with_remapped_proc(5, &|p| if p == 1 { Some(7) } else { None });
        // The remote context was rewritten into atoms of its own; the
        // two it leaves alone are still shared.
        assert_eq!(
            shared(&moved.new_contexts, &d.new_contexts),
            [true, true, false]
        );
        let chain = |c: &DumpContext| c.remote_chain().map(<[u64]>::to_vec);
        assert_eq!(chain(&moved.new_contexts[2]), Some(vec![0x0700_0001]));
        // The original and the dump it shares with are untouched.
        assert_eq!(chain(&d.new_contexts[2]), Some(vec![0x0100_0001]));
        assert_eq!(d, diff_dump(0, 0, None, &grown_dump()).unwrap());
        assert_eq!(b, grown_dump());
    }

    #[test]
    fn catchup_delta_resyncs_after_a_lost_delta() {
        let a = base_dump();
        let b = grown_dump();
        let d0 = diff_dump(0, 0, None, &a).unwrap();
        // The growth delta (seq 1) is lost in transit.
        let _lost = diff_dump(0, 1, Some(&a), &b).unwrap();
        let mut acc = StageAccumulator::new(&header());
        acc.apply(&d0).unwrap();
        // Resync from the emitter snapshot covering seqs 0..2.
        let cd = acc.catchup_delta(0, &b).unwrap().expect("acc is behind");
        assert_eq!(cd.seq, acc.next_seq());
        acc.apply(&cd).unwrap();
        acc.set_next_seq(2);
        assert_eq!(acc.to_dump(), b);
        assert_eq!(acc.next_seq(), 2);
        // Already caught up: no further catch-up delta.
        assert_eq!(acc.catchup_delta(0, &b), Ok(None));
        // A snapshot that is not an extension of the state is an
        // error for the caller, not a panic.
        assert_eq!(
            acc.catchup_delta(0, &base_dump()),
            Err(DeltaError::Inconsistent {
                stage: 0,
                what: "frame table is not an append-only extension"
            })
        );
    }

    #[test]
    fn recorded_resync_tracks_the_reference_stream() {
        let a = base_dump();
        let b = grown_dump();
        let hdr = StreamHeader {
            stages: vec![header()],
        };
        let batch = |epoch, d: StageDelta| EpochBatch {
            epoch,
            seq: epoch,
            end: (epoch + 1) * 100,
            deltas: vec![d],
        };
        let mut src = RecordedResync::new(&hdr);
        src.advance(&batch(0, diff_dump(0, 0, None, &a).unwrap()));
        src.advance(&batch(1, diff_dump(0, 1, Some(&a), &b).unwrap()));
        let (dump, next) = src.snapshot(0).unwrap();
        assert_eq!(dump, b);
        assert_eq!(next, 2);
        assert!(src.snapshot(9).is_none());
    }

    #[test]
    #[should_panic(expected = "append-only")]
    fn shrinking_table_panics() {
        let a = grown_dump();
        let b = base_dump();
        diff_dump(0, 1, Some(&a), &b);
    }
}
