//! The online collector tier: incremental stitching, per-origin
//! aggregation, and live queries over a streaming profile feed.
//!
//! Batch Whodunit (EuroSys 2007 §5) stitches per-stage dumps *post
//! mortem* — the batch pipeline ([`whodunit_core::pipeline`]) reads
//! every stage's complete profile at end-of-run. The paper pitches
//! Whodunit as an *online* profiler, though, and the deployable shape
//! of that claim is a collector daemon that consumes per-stage deltas
//! as the tiers produce them. This crate is that tier:
//!
//! - **Ingest** ([`Collector::enqueue`], [`Collector::poll`]): epoch
//!   batches of [`whodunit_core::delta`] stage deltas, with sequence
//!   and checksum verification, queue-depth backpressure, and lag
//!   accounting.
//! - **Incremental stitching**: synopses are indexed as they are
//!   minted; each new context's origin walk runs as soon as the
//!   context arrives. Walks (and request edges) blocked on a synopsis
//!   the collector has not seen yet park in a *pending table* keyed by
//!   the missing raw value and resume the moment a later epoch mints
//!   it. Early resolution is sound because the minted-synopsis index
//!   is insert-only: an entry never changes once written, so a walk
//!   that resolves at epoch *e* resolves identically against the
//!   complete end-of-run index.
//! - **Incremental CCT merge**: each origin's cross-stage profile is
//!   folded node-by-node as CCT deltas arrive, over a collector-local
//!   frame table in arrival order (the global sorted frame table only
//!   exists in the batch report).
//! - **Retention**: every origin keeps its merged tree in one map until
//!   [`Collector::finalize`], as every stage keeps its dump in its
//!   accumulator, so memory grows with the origins and stages the
//!   stream names. Each origin caches its cycle total, and a snapshot
//!   ranks all of them in one scan.
//! - **Live queries** ([`Collector::snapshot`]): top-k transaction
//!   paths by cost, per-origin tier latency breakdown, and crosstalk
//!   hotspots at any epoch, rendered through
//!   [`whodunit_report::live`].
//!
//! **One answer-maker.** [`Collector::finalize`] is
//! [`whodunit_core::pipeline::analyze`] over the dumps the collector
//! accumulated: the report has no second route. The incremental state
//! (origin trees, crosstalk tables, pending walks) exists to answer
//! [`Collector::snapshot`], and the collector's test suites hold every
//! live snapshot to what `analyze` reports over the same prefix of the
//! stream. Nothing reaches the accumulators unvalidated:
//! [`StageAccumulator::apply`] checks everything [`StageDump::validate`]
//! checks before it mutates, and a frame it (or the minted-synopsis
//! index) refuses leaves no trace. Refused input has exactly one route,
//! with or without a [`ResyncSource`]: duplicate → drop, gap → park,
//! corrupt or inconsistent → quarantine → bounded resync → halt the
//! stage (see [`quarantine`]). Every step is counted in
//! [`CollectorStats`] and named in [`CollectorStats::degraded`]; the
//! report is what the batch pipeline computes over the dumps the
//! collector did accumulate ([`PipelineReport::stages`]) — healed or
//! short of mass, never invented.
//!
//! The [`federation`]'s root is not a collector. Nothing asks it for a
//! snapshot, so it keeps only one [`StageAccumulator`] per stage and
//! finalizes with the same `analyze`; a bad frame there, as at every
//! federation hop, is refused whole and retried by its link rather
//! than quarantined.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod federation;
mod link;
pub mod quarantine;
pub mod sentinel;

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use whodunit_core::cct::{Cct, CctNodeId, Metrics};
use whodunit_core::hash::FnvHashMap;
use whodunit_core::crosstalk::{OriginKey, WaitStats};
use whodunit_core::delta::{
    CctDelta, DeltaError, DeltaSink, EpochBatch, Incoming, IncomingBatch, ResyncSource,
    StageAccumulator, StageDelta, StreamHeader,
};
use whodunit_core::frame::FrameId;
use whodunit_core::pipeline::{analyze, PipelineConfig, PipelineReport};
use whodunit_core::stitch::{
    ctx_string_into, fold_dump_nodes, walk_origin, StageDump, UnresolvedHead,
};
use whodunit_core::wire::{self, BatchDecoder, WireError};
use whodunit_report::live::{Hotspot, LagStats, LiveSnapshot, TierSlice, TopPath};

pub use federation::{
    CleanLinks, FedNodeId, Federation, FederationConfig, FederationOutput, FederationStats,
    LinkPolicy, LinkVerdict, RecoveryRecord,
};
pub use quarantine::{QuarantinePolicy, StageQuarantine};
pub use sentinel::{Sentinel, SentinelSink, SloBudget, SloViolation};

/// Tuning knobs of the collector.
#[derive(Clone, Debug)]
pub struct CollectorConfig {
    /// Reserved and unread, like [`PipelineConfig::shards`]: the
    /// finalized report has one context dictionary. The field survives
    /// only because `benchmark/`'s `batch_config` reads its default;
    /// ROADMAP item 7 drops that, then this field.
    pub shards: usize,
    /// Unread: the collector evicts nothing. Kept only because
    /// `benchmark/src/workloads.rs` sets it; ROADMAP item 7 drops that,
    /// then this field.
    #[deprecated(note = "unread: the collector evicts nothing")]
    pub window_epochs: u64,
    /// Ingest queue capacity; `0` means unbounded. When the queue is
    /// full, [`Collector::enqueue`] refuses the batch (backpressure)
    /// and counts it in [`CollectorStats::throttled`].
    pub max_queue: usize,
    /// Quarantine/reorder/resync/stall policy. Applies with or without
    /// a [`ResyncSource`]: without one, the first resync a stage needs
    /// halts it.
    pub quarantine: QuarantinePolicy,
    /// Whether to record per-epoch [`EpochObs`] for a sentinel to
    /// drain. Off by default: the observations are cheap but not free,
    /// and only the sentinel consumes them.
    pub track_obs: bool,
}

#[allow(deprecated)]
impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            shards: 32,
            window_epochs: 4,
            max_queue: 0,
            quarantine: QuarantinePolicy::default(),
            track_obs: false,
        }
    }
}

/// Cheap per-epoch observations for SLO evaluation: everything the
/// sentinel's budgets are defined over, computed incrementally from the
/// batch content during ingest (no snapshot, no cloning).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochObs {
    /// Epoch index of the batch.
    pub epoch: u64,
    /// Virtual time (cycles) at the end of the epoch.
    pub end: u64,
    /// Change events the batch carried.
    pub events: u64,
    /// Cycles added per stage this epoch (indexed by stage).
    pub stage_cycles: Vec<u64>,
    /// Crosstalk wait cycles added this epoch.
    pub xt_wait: u64,
    /// Ingest queue depth after the batch was processed.
    pub queued: u64,
    /// Frames quarantined while processing the batch.
    pub quarantined: u64,
}

/// Ingest, memory, and integrity accounting.
#[derive(Clone, Debug, Default)]
pub struct CollectorStats {
    /// Epoch batches processed.
    pub batches: u64,
    /// Individual change events processed.
    pub events: u64,
    /// Batch sequence gaps observed.
    pub seq_gaps: u64,
    /// Deltas naming a stage outside the stream header: there is no
    /// stage to quarantine them under, so they are dropped, counted
    /// here and reported as one line of [`CollectorStats::degraded`].
    pub delta_errors: u64,
    /// Corrupt frames quarantined (checksum / inconsistency), each
    /// followed by a resync attempt.
    pub quarantined: u64,
    /// Duplicated frames dropped (already-applied sequence numbers).
    pub dup_frames: u64,
    /// Out-of-order frames healed from the reorder buffer.
    pub healed_frames: u64,
    /// Bounded resyncs performed against the attached source.
    pub resyncs: u64,
    /// Frames discarded on halted stages.
    pub dropped_frames: u64,
    /// Stall events declared by the watchdog.
    pub stalls: u64,
    /// Always 0: the collector evicts nothing. Kept, with `revivals`
    /// and `peak_resident`, only because `benchmark/src/layers.rs`
    /// reads all three by name (ROADMAP item 7).
    #[deprecated(note = "always 0: the collector evicts nothing")]
    pub evictions: u64,
    /// Always 0; see [`CollectorStats::evictions`].
    #[deprecated(note = "always 0: the collector evicts nothing")]
    pub revivals: u64,
    /// Always 0; see [`CollectorStats::evictions`].
    #[deprecated(note = "always 0: the collector evicts nothing")]
    pub peak_resident: u64,
    /// Batches refused because the ingest queue was full.
    pub throttled: u64,
    /// High-water mark of the ingest queue depth, all-time.
    pub peak_queued: u64,
    /// High-water mark of the current fill/drain cycle; resets when a
    /// batch arrives on an empty queue, so collector reuse across
    /// drain cycles does not pin the gauge at an ancient peak.
    pub cycle_peak_queued: u64,
    /// Explicit degradation markers, one per stage whose stream needed
    /// quarantine/resync/stall handling, plus one for deltas that named
    /// no stage (set at finalize; empty on a clean stream). The
    /// [`PipelineReport`] itself stays byte-exact — degradation is
    /// annotated here and in [`LiveSnapshot::degraded`], never inside
    /// the report.
    pub degraded: Vec<String>,
    /// Origin walks still pending when [`Collector::finalize`] flushed
    /// the stream. Zero on a clean complete stream.
    pub pending_walks_at_flush: u64,
    /// Request edges still pending when finalize flushed the stream:
    /// the report's unresolved edges.
    pub pending_edges_at_flush: u64,
    /// Never set: the whole-run batch fallback it reported is gone.
    /// Kept only because `benchmark/src/{layers,workloads}.rs`, which
    /// product PRs may not edit, read it by name (ROADMAP item 7).
    pub used_fallback: bool,
    /// Binary wire frames accepted by [`Collector::enqueue_wire`].
    pub wire_frames: u64,
    /// Total encoded bytes of the accepted wire frames.
    pub wire_bytes: u64,
    /// Wire frames rejected before ingest (bad magic/version/kind,
    /// truncation, envelope checksum, malformed body). The frame is
    /// dropped like a lost batch, so the §12 seq-gap machinery heals
    /// the stream on the next good frame.
    pub wire_errors: u64,
}

/// What [`Collector::finalize`] returns: the batch report over the
/// accumulated dumps plus the collector's own accounting.
#[derive(Debug)]
pub struct CollectorOutput {
    /// [`analyze`] over the dumps the collector accumulated, so it
    /// carries the pipeline's phase [`PipelineReport::timings`]: the
    /// collector's finalize times itself.
    pub report: PipelineReport,
    /// Ingest/memory/integrity accounting of the streaming run.
    pub stats: CollectorStats,
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
    hot_path: std::cell::OnceCell<Vec<u32>>,
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

/// Per-stage streaming state.
#[derive(Debug)]
struct StageState {
    acc: StageAccumulator,
    /// Per context index: the resolved origin, once the walk settles.
    bindings: Vec<Option<OriginKey>>,
    /// Per context index, `Some` once the context's CCT mass is folded:
    /// dump CCT node index → node id inside the origin's merged CCT.
    fold: Vec<Option<Vec<CctNodeId>>>,
    /// Stage-local frame index → collector-global frame id, kept in
    /// sync as deltas arrive so folds never rebuild the mapping.
    frame_map: Vec<u32>,
}

/// Stage-local frame index → collector-global [`FrameId`], for
/// [`fold_dump_nodes`].
fn frame_of(map: &[u32]) -> impl Fn(u32) -> FrameId + '_ {
    |f| FrameId(map.get(f as usize).copied().unwrap_or(u32::MAX))
}

/// The streaming collector. See the crate docs for the model.
#[derive(Debug)]
pub struct Collector {
    cfg: CollectorConfig,
    header: StreamHeader,
    stages: Vec<StageState>,
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
    /// Every origin folded so far.
    origins: FnvHashMap<OriginKey, OriginAggregate>,
    /// Memoized origin labels (see [`Collector::origin_label`]).
    label_cache: std::cell::RefCell<FnvHashMap<OriginKey, String>>,
    /// Collector-local frame intern table (union of stage frames in
    /// arrival order), naming the snapshot's hot paths. Names are
    /// shared with the stage accumulators.
    frames: Vec<Arc<str>>,
    frame_ids: FnvHashMap<Arc<str>, u32>,
    epoch: u64,
    now: u64,
    queue: VecDeque<IncomingBatch>,
    /// Reads wire frames into the storage of batches already processed.
    decoder: BatchDecoder,
    next_batch_seq: u64,
    stats: CollectorStats,
    started: bool,
    /// Per-stage quarantine/reorder/stall state, parallel to `stages`.
    quarantine: Vec<StageQuarantine>,
    /// Emitter-side snapshot provider for bounded resync, if attached.
    resync: Option<ResyncHandle>,
    /// Epoch of the batch currently being ingested (for per-stage
    /// progress tracking; `epoch` itself only advances post-batch).
    ingest_epoch: u64,
    /// Recorded per-epoch observations awaiting `pop_epoch_obs`.
    epoch_obs: VecDeque<EpochObs>,
    /// Per-batch scratch for `EpochObs::stage_cycles`.
    obs_stage_cycles: Vec<u64>,
    /// Per-batch scratch for `EpochObs::xt_wait`.
    obs_xt_wait: u64,
    /// Per-batch scratch for `EpochObs::quarantined`.
    obs_quarantined: u64,
}

/// Debug-opaque wrapper so `Collector` can keep `derive(Debug)` while
/// holding a trait object.
struct ResyncHandle(Box<dyn ResyncSource>);

impl std::fmt::Debug for ResyncHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ResyncSource(..)")
    }
}

const TRAILING: WireError = WireError::Malformed("bytes after the frame");
const OTHER_HEADER: WireError = WireError::Malformed("a different stream header is installed");
const NO_HEADER: WireError = WireError::Malformed("no stream header is installed");

/// A decoder's `(value, consumed)` for a buffer that is to hold exactly
/// one frame: the value, or a refusal if anything follows the frame.
fn whole_frame<T>((value, consumed): (T, usize), buf: &[u8]) -> Result<T, WireError> {
    if consumed == buf.len() {
        Ok(value)
    } else {
        Err(TRAILING)
    }
}

/// Bound on retained [`EpochObs`] when nothing drains them.
const OBS_CAPACITY: usize = 4096;

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

impl Collector {
    /// A collector that has not yet seen its stream header.
    pub fn new(cfg: CollectorConfig) -> Self {
        Collector {
            cfg,
            header: StreamHeader::default(),
            stages: Vec::new(),
            syn_index: HashMap::new(),
            pending_walks: HashMap::new(),
            pending_edges: HashMap::new(),
            deferred_xt: Vec::new(),
            xt_pairs: FnvHashMap::default(),
            origins: FnvHashMap::default(),
            label_cache: std::cell::RefCell::new(FnvHashMap::default()),
            frames: Vec::new(),
            frame_ids: FnvHashMap::default(),
            epoch: 0,
            now: 0,
            queue: VecDeque::new(),
            decoder: BatchDecoder::default(),
            next_batch_seq: 0,
            stats: CollectorStats::default(),
            started: false,
            quarantine: Vec::new(),
            resync: None,
            ingest_epoch: 0,
            epoch_obs: VecDeque::new(),
            obs_stage_cycles: Vec::new(),
            obs_xt_wait: 0,
            obs_quarantined: 0,
        }
    }

    /// Installs the stream header (stage set). Must be called exactly
    /// once, before any batch.
    pub fn start(&mut self, header: &StreamHeader) {
        assert!(!self.started, "collector already started");
        self.started = true;
        self.header = header.clone();
        self.stages = header
            .stages
            .iter()
            .map(|s| StageState {
                acc: StageAccumulator::new(s),
                bindings: Vec::new(),
                fold: Vec::new(),
                frame_map: Vec::new(),
            })
            .collect();
        self.quarantine = vec![StageQuarantine::default(); self.stages.len()];
    }

    /// Attaches an emitter-side snapshot provider, so a quarantined
    /// frame or an unfillable sequence hole heals by bounded resync
    /// instead of halting its stage. The source must be advanced to (at
    /// least) the batch the collector is about to process — a snapshot
    /// that lags the damage cannot heal it — and its snapshots must
    /// extend what the collector has applied; one that does not halts
    /// the stage.
    pub fn set_resync_source(&mut self, src: Box<dyn ResyncSource>) {
        self.resync = Some(ResyncHandle(src));
    }

    /// The explicit degradation markers for every stage whose stream
    /// needed self-healing, in stage order, then one line for deltas
    /// that named no stage of the header. Empty on a clean stream.
    pub fn degraded_markers(&self) -> Vec<String> {
        let unknown = self.stats.delta_errors;
        self.quarantine
            .iter()
            .enumerate()
            .filter(|(_, q)| q.degraded())
            .map(|(si, q)| {
                let name = self
                    .header
                    .stages
                    .get(si)
                    .map(|s| s.stage_name.as_str())
                    .unwrap_or("?");
                q.marker(si, name)
            })
            .chain((unknown > 0).then(|| format!("{unknown} deltas for unknown stages dropped")))
            .collect()
    }

    /// Pops the oldest per-epoch observation not yet taken, if any
    /// (there are none unless [`CollectorConfig::track_obs`] is set).
    pub fn pop_epoch_obs(&mut self) -> Option<EpochObs> {
        self.epoch_obs.pop_front()
    }

    /// Read access to the running stats.
    pub fn stats(&self) -> &CollectorStats {
        &self.stats
    }

    /// The epoch of the last processed batch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Offers a batch to the ingest queue. Returns `false` (and counts
    /// a throttle) if the queue is at capacity — the emitter must slow
    /// down or retry; the batch was **not** accepted.
    pub fn enqueue(&mut self, batch: EpochBatch) -> bool {
        if self.throttle() {
            return false;
        }
        self.push(batch.into());
        true
    }

    /// Whether the queue is at capacity; counts the refusal if so.
    fn throttle(&mut self) -> bool {
        let full = self.cfg.max_queue > 0 && self.queue.len() >= self.cfg.max_queue;
        if full {
            self.stats.throttled += 1;
        }
        full
    }

    fn push(&mut self, batch: IncomingBatch) {
        // A batch landing on an empty queue starts a new fill/drain
        // cycle: the cycle gauge resets while the all-time peak stays.
        if self.queue.is_empty() {
            self.stats.cycle_peak_queued = 0;
        }
        self.queue.push_back(batch);
        let depth = self.queue.len() as u64;
        self.stats.peak_queued = self.stats.peak_queued.max(depth);
        self.stats.cycle_peak_queued = self.stats.cycle_peak_queued.max(depth);
    }

    /// Installs the stream header from its binary wire frame
    /// ([`whodunit_core::wire::encode_header`]). The wire twin of
    /// [`Collector::start`], except that the frame comes from outside:
    /// a header delivered again (links duplicate) is accepted and
    /// changes nothing, while a different one, bytes after the frame or
    /// a damaged frame are refused and counted in
    /// [`CollectorStats::wire_errors`].
    pub fn start_wire(&mut self, frame: &[u8]) -> Result<(), WireError> {
        let installed = wire::decode_header(frame)
            .and_then(|decoded| whole_frame(decoded, frame))
            .and_then(|header| {
                if !self.started {
                    self.start(&header);
                } else if header != self.header {
                    return Err(OTHER_HEADER);
                }
                Ok(())
            });
        self.stats.wire_errors += u64::from(installed.is_err());
        installed
    }

    /// Offers a binary wire frame to the ingest queue — the wire twin
    /// of [`Collector::enqueue`]. Queue capacity is checked first:
    /// `Ok(false)` means the queue was full and the frame was **not**
    /// looked at — counted in [`CollectorStats::throttled`] only, so a
    /// damaged frame offered to a full queue is reported on the retry
    /// that finds room. Otherwise the envelope (magic, version, kind,
    /// length, FNV digest) is verified before any decode; a damaged
    /// frame is counted in [`CollectorStats::wire_errors`] and dropped,
    /// which the self-healing machinery then treats exactly like a
    /// lost batch (reorder-buffer park on the next good frame, bounded
    /// resync if the hole cannot be healed). So is a buffer that holds
    /// anything after its one frame, and any frame offered before a
    /// stream header is installed: a batch has no stages to land in
    /// then. An accepted frame is decoded into the storage of batches
    /// [`Collector::poll`] has finished with.
    pub fn enqueue_wire(&mut self, frame: &[u8]) -> Result<bool, WireError> {
        if self.throttle() {
            return Ok(false);
        }
        let decoded = if self.started {
            self.decoder.decode(frame)
        } else {
            Err(NO_HEADER)
        };
        match decoded.and_then(|decoded| whole_frame(decoded, frame)) {
            Ok(batch) => {
                self.push(batch);
                self.stats.wire_frames += 1;
                self.stats.wire_bytes += frame.len() as u64;
                Ok(true)
            }
            Err(e) => {
                self.stats.wire_errors += 1;
                Err(e)
            }
        }
    }

    /// Processes one queued batch; returns whether one was processed.
    pub fn poll(&mut self) -> bool {
        let Some(batch) = self.queue.pop_front() else {
            return false;
        };
        self.process_batch(&batch);
        self.decoder.recycle(batch);
        true
    }

    /// Processes every queued batch.
    pub fn drain(&mut self) {
        while self.poll() {}
    }

    /// Number of batches queued but not yet processed.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    fn process_batch(&mut self, queued: &IncomingBatch) {
        assert!(self.started, "collector not started");
        let batch = queued.batch();
        self.stats.batches += 1;
        let events = batch.events();
        self.stats.events += events;
        if batch.seq != self.next_batch_seq {
            self.stats.seq_gaps += 1;
        }
        self.next_batch_seq = batch.seq + 1;
        self.ingest_epoch = batch.epoch;
        if self.cfg.track_obs {
            self.obs_stage_cycles.clear();
            self.obs_stage_cycles.resize(self.stages.len(), 0);
            self.obs_xt_wait = 0;
            self.obs_quarantined = 0;
        }
        for d in queued.deltas() {
            self.ingest_delta(d);
        }
        self.retry_deferred_xt();
        self.epoch = self.epoch.max(batch.epoch);
        self.now = self.now.max(batch.end);
        // Stall watchdog: a stage silent for the configured number of
        // epochs is explicitly marked (and un-marks on progress; the
        // stall count stays).
        let stall = self.cfg.quarantine.stall_epochs;
        if stall > 0 {
            for q in &mut self.quarantine {
                if !q.halted && !q.stalled && self.epoch.saturating_sub(q.last_progress) >= stall
                {
                    q.stalled = true;
                    q.stalls += 1;
                    self.stats.stalls += 1;
                }
            }
        }
        if self.cfg.track_obs {
            self.epoch_obs.push_back(EpochObs {
                epoch: batch.epoch,
                end: batch.end,
                events,
                stage_cycles: std::mem::take(&mut self.obs_stage_cycles),
                xt_wait: self.obs_xt_wait,
                queued: self.queue.len() as u64,
                quarantined: self.obs_quarantined,
            });
            if self.epoch_obs.len() > OBS_CAPACITY {
                self.epoch_obs.pop_front();
            }
        }
    }

    /// One stage delta: classify (apply / quarantine / park / drop),
    /// then do the incremental stitching work its content unlocks.
    fn ingest_delta(&mut self, d: Incoming<'_>) {
        let stage = d.delta().stage;
        if stage >= self.stages.len() {
            // No stage to quarantine it under: drop and count.
            self.stats.delta_errors += 1;
            return;
        }
        if self.quarantine[stage].halted {
            self.quarantine[stage].dropped += 1;
            self.stats.dropped_frames += 1;
            return;
        }
        self.try_apply(d);
    }

    /// Validates `d` against the minted-synopsis index and the stage's
    /// accumulator, then applies it and does the incremental stitch
    /// work; an `Err` leaves no trace of the frame. The one way a
    /// delta, live or catch-up, reaches collector state.
    fn apply_checked(&mut self, incoming: Incoming<'_>) -> Result<(), DeltaError> {
        let d = incoming.delta();
        // The index is insert-only and batch resolves a duplicate mint
        // last-insert-wins over the complete run, which no incremental
        // index can reproduce: a raw value has one owner.
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
        let ctx_base = self.stages[d.stage].acc.context_count() as u32;
        incoming.apply_to(&mut self.stages[d.stage].acc)?;
        let q = &mut self.quarantine[d.stage];
        q.last_progress = self.ingest_epoch;
        q.stalled = false;
        self.apply_stitch(d, ctx_base);
        Ok(())
    }

    /// Applies one live frame plus any parked frames it unblocks, or
    /// routes it by why it was refused: duplicate → drop, gap → park,
    /// corrupt or inconsistent → quarantine and resync.
    fn try_apply(&mut self, incoming: Incoming<'_>) {
        let d = incoming.delta();
        match self.apply_checked(incoming) {
            Ok(()) => self.drain_parked(d.stage),
            Err(DeltaError::SeqGap { expected, got, .. }) if got < expected => {
                // Duplicate of an already-applied frame: drop it.
                self.quarantine[d.stage].duplicates += 1;
                self.stats.dup_frames += 1;
            }
            Err(DeltaError::SeqGap { .. }) => self.park(incoming),
            Err(_) => {
                // Checksum or inconsistency: the frame's content is
                // unusable. Quarantine it and catch up from the
                // emitter snapshot.
                self.quarantine[d.stage].corrupt += 1;
                self.stats.quarantined += 1;
                self.obs_quarantined += 1;
                self.request_resync(d.stage);
            }
        }
    }

    /// Parks an out-of-order frame in the bounded reorder buffer; an
    /// overflowing hole is treated as loss and resyncs. The parked copy
    /// outlives its batch, so an unsealed delta is sealed with its real
    /// checksum first: it comes back through the verifying `apply`.
    fn park(&mut self, incoming: Incoming<'_>) {
        let d = incoming.delta();
        let q = &mut self.quarantine[d.stage];
        q.parked.entry(d.seq).or_insert_with(|| incoming.seal());
        q.parked_peak = q.parked_peak.max(q.parked.len() as u64);
        if q.parked.len() > self.cfg.quarantine.reorder_buffer {
            self.request_resync(d.stage);
        }
    }

    /// Applies parked frames that have become contiguous with the
    /// accumulator's expected sequence number.
    fn drain_parked(&mut self, si: usize) {
        loop {
            let next = self.stages[si].acc.next_seq();
            let Some(d) = self.quarantine[si].parked.remove(&next) else {
                return;
            };
            self.quarantine[si].healed += 1;
            self.stats.healed_frames += 1;
            // Recursion depth is bounded by the reorder buffer size.
            self.try_apply(Incoming::Sealed(&d));
        }
    }

    /// Bounded resync: fold the emitter's snapshot in as a synthetic
    /// catch-up delta through the normal ingest path, fast-forward the
    /// sequence horizon, and drain whatever parked frames survive.
    /// No source, a source that lags, a snapshot that does not extend
    /// the accumulated state, or an exhausted budget halts the stage.
    fn request_resync(&mut self, si: usize) {
        if self.quarantine[si].halted {
            return;
        }
        if self.quarantine[si].resyncs >= self.cfg.quarantine.max_resyncs {
            self.halt(si);
            return;
        }
        let snap = self.resync.as_ref().and_then(|h| h.0.snapshot(si));
        let Some((dump, upto)) = snap else {
            self.halt(si);
            return;
        };
        if upto < self.stages[si].acc.next_seq() {
            // The source lags the collector: it cannot cover the
            // damage (callers must advance it batch-by-batch first).
            self.halt(si);
            return;
        }
        let caught_up = self.stages[si]
            .acc
            .catchup_delta(si, &dump)
            .and_then(|cd| cd.map_or(Ok(()), |cd| self.apply_checked(Incoming::Sealed(&cd))));
        if caught_up.is_err() {
            self.halt(si);
            return;
        }
        self.quarantine[si].resyncs += 1;
        self.stats.resyncs += 1;
        self.stages[si].acc.set_next_seq(upto);
        // Parked frames the snapshot subsumed are no longer needed.
        self.quarantine[si].parked.retain(|&s, _| s >= upto);
        self.drain_parked(si);
    }

    /// Halts a stage: no more frames are accepted for it, parked ones
    /// are discarded, and the report will carry its degradation marker.
    fn halt(&mut self, si: usize) {
        let q = &mut self.quarantine[si];
        if q.halted {
            return;
        }
        q.halted = true;
        let parked = q.parked.len() as u64;
        q.parked.clear();
        q.dropped += parked;
        self.stats.dropped_frames += parked;
    }

    /// The incremental stitching work an applied delta unlocks; only
    /// [`Collector::apply_checked`] calls it, so every node, context
    /// and mint in `d` has passed validation.
    fn apply_stitch(&mut self, d: &StageDelta, ctx_base: u32) {
        if self.cfg.track_obs {
            let cycles: u64 = d
                .ccts
                .iter()
                .map(|c| {
                    c.grown.iter().map(|&(_, _, dc, _)| dc).sum::<u64>()
                        + c.new_nodes.iter().map(|n| n.cycles).sum::<u64>()
                })
                .sum();
            if let Some(slot) = self.obs_stage_cycles.get_mut(d.stage) {
                *slot += cycles;
            }
            self.obs_xt_wait += d.pairs.iter().map(|p| p.total_wait).sum::<u64>();
        }
        for f in &d.new_frames {
            self.intern_frame(f);
        }
        // Extend the stage's frame map for frames this delta added;
        // every stage frame is interned by now, so the entries are
        // final and folds can index the map directly.
        {
            let st = &mut self.stages[d.stage];
            for i in st.frame_map.len()..st.acc.frames.len() {
                let id = self
                    .frame_ids
                    .get(&st.acc.frames[i])
                    .copied()
                    .unwrap_or(u32::MAX);
                st.frame_map.push(id);
            }
        }
        // CCT increments for contexts whose mass is already folded.
        // Unbound contexts are skipped here: their mass stays in the
        // accumulator and is folded wholesale when the walk settles.
        for c in &d.ccts {
            if self.stages[d.stage]
                .fold
                .get(c.ctx as usize)
                .is_some_and(Option::is_some)
            {
                self.fold_delta(d.stage, c);
            } else if self.stages[d.stage].bindings.get(c.ctx as usize).copied().flatten().is_some()
            {
                self.fold_full(d.stage, c.ctx);
            }
        }
        // Index new mints; each may unpark pending walks and edges.
        for &(raw, ctx) in &d.new_synopses {
            self.syn_index.insert(raw, (d.stage, ctx));
            if let Some(starts) = self.pending_walks.remove(&raw) {
                for s in starts {
                    self.try_walk(s);
                }
            }
            self.pending_edges.remove(&raw);
        }
        // New contexts: a request edge whose sender is not minted yet
        // waits, then the origin walk.
        let ctx_total = self.stages[d.stage].acc.context_count() as u32;
        self.stages[d.stage]
            .bindings
            .resize(ctx_total as usize, None);
        for ci in ctx_base..ctx_total {
            let sender = self.stages[d.stage].acc.contexts[ci as usize]
                .remote_chain()
                .and_then(|chain| chain.last().copied());
            if let Some(last) = sender.filter(|raw| !self.syn_index.contains_key(raw)) {
                *self.pending_edges.entry(last).or_default() += 1;
            }
            self.try_walk((d.stage, ci));
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
    /// settled by [`analyze`]).
    fn try_walk(&mut self, start: (usize, u32)) {
        if self.binding_of(start.0, start.1).is_some() {
            return;
        }
        match self.origin_walk(start) {
            Ok(origin) => self.bind(start, origin),
            Err(u) => self
                .pending_walks
                .entry(u.missing)
                .or_default()
                .push(start),
        }
    }

    /// [`walk_origin`] over the accumulated contexts and the current
    /// minted-synopsis index.
    fn origin_walk(&self, start: (usize, u32)) -> Result<OriginKey, UnresolvedHead> {
        let context = |(s, c): (usize, u32)| self.stages.get(s)?.acc.contexts.get(c as usize);
        walk_origin(context, |raw| self.syn_index.get(&raw).copied(), start)
    }

    /// Records a settled origin and folds any CCT mass the context has
    /// already accumulated.
    fn bind(&mut self, start: (usize, u32), origin: OriginKey) {
        self.stages[start.0].bindings[start.1 as usize] = Some(origin);
        if self.stages[start.0].acc.cct_nodes(start.1).is_some() {
            self.fold_full(start.0, start.1);
        }
    }

    /// The aggregate of `origin`, created on first use, for a fold that
    /// is about to change its tree: the hot-path memo goes.
    fn origin_for_fold(&mut self, origin: OriginKey) -> &mut OriginAggregate {
        let e = self.origins.entry(origin).or_default();
        e.hot_path.take();
        e
    }

    /// Folds the *entire* accumulated CCT of `(si, ctx)` into its
    /// origin's aggregate, creating the node map for later
    /// incremental folds. Called once, when the binding settles.
    fn fold_full(&mut self, si: usize, ctx: u32) {
        debug_assert!(self
            .stages[si]
            .fold
            .get(ctx as usize)
            .is_none_or(Option::is_none));
        let origin = self.stages[si].bindings[ctx as usize].expect("bound before fold");
        let nodes: Vec<_> = match self.stages[si].acc.cct_nodes(ctx) {
            Some(n) => n.to_vec(),
            None => return,
        };
        // Borrow the cached stage frame map for the duration of the
        // fold (taken rather than cloned; restored below).
        let frames = std::mem::take(&mut self.stages[si].frame_map);
        let mut map: Vec<CctNodeId> = Vec::with_capacity(nodes.len());
        let entry = self.origin_for_fold(origin);
        let cycles = fold_dump_nodes(&mut entry.cct, &mut map, &nodes, frame_of(&frames))
            .expect("apply validated every accumulated node");
        entry.add_cycles(si, cycles);
        let st = &mut self.stages[si];
        st.frame_map = frames;
        if st.fold.len() <= ctx as usize {
            st.fold.resize_with(ctx as usize + 1, || None);
        }
        st.fold[ctx as usize] = Some(map);
    }

    /// Folds one CCT increment through the context's existing node
    /// map: growth onto mapped nodes, then the new nodes appended. `c`
    /// has been applied to the stage's accumulator, whose node list the
    /// map mirrors, so it continues the map and every new node links to
    /// a mapped parent.
    fn fold_delta(&mut self, si: usize, c: &CctDelta) {
        let origin = self
            .binding_of(si, c.ctx)
            .expect("a fold map exists only for a bound context");
        let frames = std::mem::take(&mut self.stages[si].frame_map);
        let mut map = self.stages[si].fold[c.ctx as usize]
            .take()
            .expect("caller checked the fold map exists");
        debug_assert_eq!(map.len(), c.nodes_before as usize);
        let entry = self.origin_for_fold(origin);
        let mut cycles = 0u64;
        for &(i, samples, dc, calls) in &c.grown {
            let grown = Metrics {
                samples,
                cycles: dc,
                calls,
            };
            entry.cct.record_at(map[i as usize], grown);
            cycles += dc;
        }
        cycles += fold_dump_nodes(&mut entry.cct, &mut map, &c.new_nodes, frame_of(&frames))
            .expect("apply validated the new nodes");
        entry.add_cycles(si, cycles);
        self.stages[si].frame_map = frames;
        self.stages[si].fold[c.ctx as usize] = Some(map);
    }

    fn binding_of(&self, si: usize, ctx: u32) -> Option<OriginKey> {
        self.stages
            .get(si)
            .and_then(|s| s.bindings.get(ctx as usize))
            .copied()
            .flatten()
    }

    /// Replays deferred crosstalk rows whose origins have settled.
    fn retry_deferred_xt(&mut self) {
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

    fn pending_walk_count(&self) -> u64 {
        self.pending_walks.values().map(|v| v.len() as u64).sum()
    }

    fn pending_edge_count(&self) -> u64 {
        self.pending_edges.values().sum()
    }

    /// `stage:context` label for an origin, matching the batch
    /// report's `origin_label` rendering. An origin's label is fixed
    /// once its context is interned (the frame and context tables are
    /// append-only), so it is memoized: periodic snapshots re-label
    /// the same hot origins every time, and the context-chain walk is
    /// the expensive part.
    fn origin_label(&self, origin: OriginKey) -> String {
        if let Some(s) = self.label_cache.borrow().get(&origin) {
            return s.clone();
        }
        let s = match (self.header.stages.get(origin.0), self.stages.get(origin.0)) {
            (Some(s), Some(st)) => {
                let mut label = s.stage_name.clone();
                label.push(':');
                ctx_string_into(&mut label, &st.acc.frames, &st.acc.contexts, origin.1);
                label
            }
            _ => format!("<stage {}?>:{}", origin.0, origin.1),
        };
        self.label_cache.borrow_mut().insert(origin, s.clone());
        s
    }

    /// Answers the live queries at the current epoch: top-k
    /// transaction paths by cost, their tier breakdowns, and crosstalk
    /// hotspots, plus origin, pending and lag gauges.
    pub fn snapshot(&self) -> LiveSnapshot {
        // Cycles descending, then origin ascending.
        let ranked = top_k(self.origins.iter().map(|(&k, o)| (o.total, k)), |a, b| {
            (b.0, a.1).cmp(&(a.0, b.1))
        });

        let mut top_paths = Vec::new();
        let mut tiers = Vec::new();
        for &(cycles, k) in &ranked {
            let frame_name = |f: u32| {
                self.frames
                    .get(f as usize)
                    .map_or_else(|| format!("<frame {f}?>"), |n| n.to_string())
            };
            let o = &self.origins[&k];
            let hot = o.hot_path.get_or_init(|| {
                let hottest = o.cct.hot_paths(1).into_iter().next();
                hottest.map_or_else(Vec::new, |(frames, _)| frames.iter().map(|f| f.0).collect())
            });
            top_paths.push(TopPath {
                origin: self.origin_label(k),
                cycles,
                samples: o.cct.total().samples,
                path: hot.iter().map(|&f| frame_name(f)).collect(),
            });
            tiers.push(TierSlice {
                origin: self.origin_label(k),
                stages: o
                    .tier_cycles
                    .iter()
                    .map(|(&si, &cy)| {
                        let name = self
                            .header
                            .stages
                            .get(si)
                            .map(|s| s.stage_name.clone())
                            .unwrap_or_else(|| format!("<stage {si}?>"));
                        (name, cy)
                    })
                    .collect(),
            });
        }

        // Wait descending, then pair ascending.
        let hotspots = top_k(self.xt_pairs.iter(), |a, b| {
            (b.1.total_wait, a.0).cmp(&(a.1.total_wait, b.0))
        })
        .into_iter()
        .map(|(&(w, h), s)| Hotspot {
            waiter: self.origin_label(w),
            holder: self.origin_label(h),
            count: s.count,
            total_wait: s.total_wait,
        })
        .collect();

        LiveSnapshot {
            epoch: self.epoch,
            now: self.now,
            origins: self.origins.len() as u64,
            pending_walks: self.pending_walk_count(),
            pending_edges: self.pending_edge_count(),
            lag: LagStats {
                batches: self.stats.batches,
                events: self.stats.events,
                seq_gaps: self.stats.seq_gaps,
                queued: self.queue.len() as u64,
                peak_queued: self.stats.peak_queued,
                cycle_peak_queued: self.stats.cycle_peak_queued,
                throttled: self.stats.throttled,
            },
            degraded: self.degraded_markers(),
            top_paths,
            tiers,
            hotspots,
        }
    }

    /// Final flush: drains the queue, resyncs (or halts) every stage
    /// whose sequence hole is still open, records what is still
    /// pending, then returns [`analyze`] over the accumulated dumps. A
    /// collector that never installed a header has no stages, so its
    /// report is the analysis of no dumps.
    pub fn finalize(mut self) -> CollectorOutput {
        self.drain();
        // A sequence hole still open when the stream ends is loss, not
        // reordering: resync (or halt) the stage rather than finalize
        // with its parked frames silently unapplied.
        for si in 0..self.stages.len() {
            if !self.quarantine[si].parked.is_empty() {
                self.request_resync(si);
            }
        }
        self.stats.pending_walks_at_flush = self.pending_walk_count();
        self.stats.pending_edges_at_flush = self.pending_edge_count();
        self.stats.degraded = self.degraded_markers();
        let stats = std::mem::take(&mut self.stats);
        let stages = std::mem::take(&mut self.stages);
        // The incremental state only answered snapshots: free it before
        // the batch pass builds its own.
        drop(self);
        // The dumps take the accumulators' tables and node lists
        // instead of copying them.
        let dumps: Vec<StageDump> = stages.into_iter().map(|s| s.acc.into_dump()).collect();
        CollectorOutput {
            report: analyze(dumps, PipelineConfig::default()),
            stats,
        }
    }
}

impl DeltaSink for Collector {
    fn on_start(&mut self, header: &StreamHeader) {
        self.start(header);
    }
    fn on_batch(&mut self, batch: EpochBatch) {
        self.enqueue(batch);
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::tests::{batches_for, header2};

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

    #[test]
    fn full_queue_refuses_a_wire_frame_without_decoding_it() {
        let frames: Vec<Vec<u8>> = batches_for(0, 0, "front", 2)
            .iter()
            .map(wire::encode_batch)
            .collect();
        let mut c = Collector::new(CollectorConfig {
            max_queue: 1,
            ..CollectorConfig::default()
        });
        c.start(&header2());
        assert_eq!(c.enqueue_wire(&frames[0]), Ok(true));
        let mut bad = frames[1].clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        // Full queue: the damaged frame is refused unseen.
        assert_eq!(c.enqueue_wire(&bad), Ok(false));
        assert_eq!((c.stats().throttled, c.stats().wire_errors), (1, 0));
        // Room again: the same frame is now looked at, and rejected.
        assert!(c.poll());
        assert_eq!(c.enqueue_wire(&bad), Err(WireError::Checksum));
        let st = c.stats();
        assert_eq!((st.throttled, st.wire_errors, st.wire_frames), (1, 1, 1));
    }

    fn front_frames(n: usize) -> Vec<Vec<u8>> {
        batches_for(0, 0, "front", n)
            .iter()
            .map(wire::encode_batch)
            .collect()
    }

    #[test]
    fn bytes_after_the_frame_are_refused_not_dropped() {
        let frames = front_frames(2);
        let header = wire::encode_header(&header2());
        let mut c = Collector::new(CollectorConfig::default());
        // A header frame followed by anything installs nothing.
        let followed = [&header[..], &frames[0]].concat();
        assert_eq!(c.start_wire(&followed), Err(TRAILING));
        assert_eq!(c.stats().wire_errors, 1);
        c.start_wire(&header).expect("the bare header installs");
        // Two batch frames in one buffer: neither is queued or counted
        // as accepted, and the refusal is.
        let both = frames.concat();
        assert_eq!(c.enqueue_wire(&both), Err(TRAILING));
        let st = c.stats();
        assert_eq!((st.wire_errors, st.wire_frames, c.queued()), (2, 0, 0));
        // Offered one by one, both are accepted.
        for f in &frames {
            assert_eq!(c.enqueue_wire(f), Ok(true));
        }
        let st = c.stats();
        assert_eq!((st.wire_errors, st.wire_frames), (2, 2));
        assert_eq!(st.wire_bytes, both.len() as u64);
    }

    #[test]
    fn a_batch_frame_before_the_header_is_refused_and_finalize_needs_no_header() {
        let frames = front_frames(1);
        let mut c = Collector::new(CollectorConfig::default());
        // No stages to land in: refused and counted like a lost batch,
        // never queued, so draining has nothing to process.
        assert_eq!(c.enqueue_wire(&frames[0]), Err(NO_HEADER));
        c.drain();
        let st = c.stats();
        assert_eq!((st.wire_errors, st.wire_frames, c.queued()), (1, 0, 0));
        // The header never came: the report analyzes no dumps.
        let out = c.finalize();
        assert_eq!((out.stats.batches, out.stats.wire_errors), (0, 1));
        let r = &out.report;
        assert!(r.stages.is_empty() && r.profiles.is_empty() && r.warnings.is_empty());
    }

    #[test]
    fn a_repeated_header_frame_changes_nothing_and_a_different_one_is_refused() {
        let frames = front_frames(2);
        let header = wire::encode_header(&header2());
        let mut c = Collector::new(CollectorConfig::default());
        c.start_wire(&header).expect("header installs");
        assert_eq!(c.enqueue_wire(&frames[0]), Ok(true));
        c.drain();
        // The link delivers the header again mid-stream.
        assert_eq!(c.start_wire(&header), Ok(()));
        assert_eq!(c.stats().wire_errors, 0);
        let mut other = header2();
        other.stages[1].proc = 9;
        let other = wire::encode_header(&other);
        assert_eq!(c.start_wire(&other), Err(OTHER_HEADER));
        assert_eq!(c.stats().wire_errors, 1);
        // Neither touched what the stream had built up.
        assert_eq!(c.enqueue_wire(&frames[1]), Ok(true));
        let out = c.finalize();
        assert_eq!((out.stats.batches, out.stats.quarantined), (2, 0));
        assert_eq!(out.report.stages[0].ccts[0].nodes[0].cycles, 200);
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
        let top = |c: &Collector| {
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
                1 => assert_eq!(top(&c), ("main>a".into(), 6)),
                // The fold grew the tree and dropped the memo.
                _ => assert_eq!(top(&c), ("main>b".into(), 15)),
            }
        }

        let out = c.finalize();
        let batch = whodunit_core::pipeline::analyze(vec![second], PipelineConfig::default());
        assert_eq!(out.report.fingerprint(), batch.fingerprint());
        assert_eq!(out.report.stitched_text(), batch.stitched_text());
    }

    #[test]
    fn a_wire_delta_that_parks_is_healed_not_quarantined() {
        // Frames 1 and 2 carry consecutive deltas of one stage and
        // arrive swapped: delta 2 waits in the reorder buffer, beyond
        // the life of its (unsealed, recycled) batch, and must come
        // back through the verifying `apply` with its real checksum.
        let frames = front_frames(4);
        let header = wire::encode_header(&header2());
        let ingest = |order: [usize; 4]| {
            let mut c = Collector::new(CollectorConfig::default());
            c.start_wire(&header).expect("header installs");
            for i in order {
                assert_eq!(c.enqueue_wire(&frames[i]), Ok(true));
                c.drain();
            }
            c.finalize()
        };
        let (clean, swapped) = (ingest([0, 1, 2, 3]), ingest([0, 2, 1, 3]));
        let st = &swapped.stats;
        assert_eq!((st.healed_frames, st.quarantined, st.resyncs), (1, 0, 0));
        assert_eq!(st.degraded, ["stage 0 (front): 1 reordered healed"]);
        let (a, b) = (&clean.report, &swapped.report);
        assert_eq!(a.stitched_text(), b.stitched_text());
        assert_eq!(a.crosstalk_text(), b.crosstalk_text());
        assert_eq!(a.dumps_json, b.dumps_json);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
