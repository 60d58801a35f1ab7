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
//! - **CCT merge at the first read**: a [`Collector::snapshot`] first
//!   folds every context bound since the last one into its origin's
//!   tree, from the stage's accumulator, over a collector-local frame
//!   table in arrival order; after that the context's CCT deltas fold
//!   as they arrive. A collector that is never read builds no tree.
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
//! **Modules.** `ingest` is the intake and damage route, and it alone
//! writes the stage accumulators; `live` is the incremental read layer,
//! which reads them. [`sentinel`] observes their running totals
//! ([`StageAccumulator::mass`], [`StageAccumulator::pair_wait`]).
//!
//! The [`federation`]'s root is not a collector. Nothing asks it for a
//! snapshot, so it keeps only one [`StageAccumulator`] per stage and
//! finalizes with the same `analyze`; a bad frame there, as at every
//! federation hop, is refused whole and retried by its link rather
//! than quarantined.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod federation;
mod ingest;
mod link;
mod live;
pub mod quarantine;
pub mod sentinel;

use std::collections::VecDeque;
use whodunit_core::delta::{
    DeltaSink, EpochBatch, IncomingBatch, ResyncSource, StageAccumulator, StreamHeader,
};
use whodunit_core::pipeline::{analyze, PipelineConfig, PipelineReport};
use whodunit_core::stitch::StageDump;
use whodunit_core::wire::BatchDecoder;
use whodunit_report::live::{LagStats, LiveSnapshot};

pub use federation::{
    CleanLinks, FedNodeId, Federation, FederationConfig, FederationOutput, FederationStats,
    LinkPolicy, LinkVerdict, RecoveryRecord,
};
pub use quarantine::{QuarantinePolicy, StageQuarantine};
pub use sentinel::{EpochObs, Sentinel, SentinelSink, SloBudget, SloViolation};

use live::Live;

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
}

#[allow(deprecated)]
impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            shards: 32,
            window_epochs: 4,
            max_queue: 0,
            quarantine: QuarantinePolicy::default(),
        }
    }
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

/// The streaming collector. See the crate docs for the model.
#[derive(Debug)]
pub struct Collector {
    cfg: CollectorConfig,
    header: StreamHeader,
    /// One accumulator per header stage, indexed by stage: everything
    /// `finalize` reads, and what `live` reads from.
    accs: Vec<StageAccumulator>,
    /// The incremental read layer `snapshot` answers from.
    live: Live,
    epoch: u64,
    now: u64,
    queue: VecDeque<IncomingBatch>,
    /// Reads wire frames into the storage of batches already processed.
    decoder: BatchDecoder,
    next_batch_seq: u64,
    stats: CollectorStats,
    started: bool,
    /// Per-stage quarantine/reorder/stall state, parallel to `accs`.
    quarantine: Vec<StageQuarantine>,
    /// Emitter-side snapshot provider for bounded resync, if attached.
    resync: Option<ResyncHandle>,
    /// Epoch of the batch currently being ingested (for per-stage
    /// progress tracking; `epoch` itself only advances post-batch).
    ingest_epoch: u64,
}

/// Debug-opaque wrapper so `Collector` can keep `derive(Debug)` while
/// holding a trait object.
struct ResyncHandle(Box<dyn ResyncSource>);

impl std::fmt::Debug for ResyncHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ResyncSource(..)")
    }
}

impl Collector {
    /// A collector that has not yet seen its stream header.
    pub fn new(cfg: CollectorConfig) -> Self {
        Collector {
            cfg,
            header: StreamHeader::default(),
            accs: Vec::new(),
            live: Live::default(),
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
        }
    }

    /// Installs the stream header (stage set). Must be called exactly
    /// once, before any batch.
    pub fn start(&mut self, header: &StreamHeader) {
        assert!(!self.started, "collector already started");
        self.started = true;
        self.header = header.clone();
        self.accs = header.stages.iter().map(StageAccumulator::new).collect();
        self.live = Live::new(self.accs.len());
        self.quarantine = vec![StageQuarantine::default(); self.accs.len()];
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
        if self.degrade_count() == 0 {
            return Vec::new();
        }
        let unknown = self.stats.delta_errors;
        self.quarantine
            .iter()
            .zip(&self.accs)
            .enumerate()
            .filter(|(_, (q, _))| q.degraded())
            .map(|(si, (q, acc))| q.marker(si, &acc.stage_name))
            .chain((unknown > 0).then(|| format!("{unknown} deltas for unknown stages dropped")))
            .collect()
    }

    /// The sum of the collector-wide twins of every per-stage counter
    /// [`StageQuarantine::degraded`] reads, plus the unknown-stage
    /// deltas: zero exactly when no marker would be written. `halted`
    /// has no twin and needs none (see [`Collector::halt`]).
    fn degrade_count(&self) -> u64 {
        let s = &self.stats;
        let twins = [
            s.quarantined,
            s.dup_frames,
            s.healed_frames,
            s.resyncs,
            s.dropped_frames,
        ];
        twins.iter().sum::<u64>() + s.stalls + s.delta_errors
    }

    /// Read access to the running stats.
    pub fn stats(&self) -> &CollectorStats {
        &self.stats
    }

    /// Answers the live queries at the current epoch: top-k
    /// transaction paths by cost, their tier breakdowns, and crosstalk
    /// hotspots, plus origin, pending and lag gauges. It first folds
    /// every context bound since the last snapshot into its origin's
    /// tree.
    pub fn snapshot(&mut self) -> LiveSnapshot {
        LiveSnapshot {
            epoch: self.epoch,
            now: self.now,
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
            ..self.live.snapshot(&self.accs)
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
        for si in 0..self.accs.len() {
            if !self.quarantine[si].parked.is_empty() {
                self.request_resync(si);
            }
        }
        self.stats.pending_walks_at_flush = self.live.pending_walk_count();
        self.stats.pending_edges_at_flush = self.live.pending_edge_count();
        self.stats.degraded = self.degraded_markers();
        let stats = std::mem::take(&mut self.stats);
        let accs = std::mem::take(&mut self.accs);
        // The incremental state only answered snapshots: free it before
        // the batch pass builds its own.
        drop(self);
        // The dumps take the accumulators' tables and node lists
        // instead of copying them.
        let dumps: Vec<StageDump> = accs.into_iter().map(StageAccumulator::into_dump).collect();
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

    /// `degraded_markers` skips its scan while the collector-wide
    /// counters are all zero; after every batch of every damage a
    /// stream can take, halts included, the scan would find nothing
    /// exactly then.
    #[test]
    fn the_clean_stream_fast_path_is_the_scan() {
        let agree = |c: &Collector| {
            let scan = c.quarantine.iter().any(StageQuarantine::degraded);
            let scan = scan || c.stats.delta_errors > 0;
            assert_eq!(c.degrade_count() > 0, scan, "{:?}", c.quarantine);
        };
        let batches = batches_for(0, 0, "front", 6);
        let ingest = |cfg: CollectorConfig, stream: &[EpochBatch]| {
            let mut c = Collector::new(cfg);
            c.start(&header2());
            agree(&c);
            for b in stream {
                assert!(c.enqueue(b.clone()));
                c.drain();
                agree(&c);
            }
            c
        };
        let corrupt = |i: usize| {
            let mut s = batches.clone();
            s[i].deltas[0].checksum ^= 1;
            s
        };
        let unknown = {
            let mut s = batches.clone();
            s[1].deltas[0].stage = 7;
            s
        };
        let stalling = CollectorConfig {
            quarantine: QuarantinePolicy {
                stall_epochs: 2,
                ..QuarantinePolicy::default()
            },
            ..CollectorConfig::default()
        };
        let one_parked = CollectorConfig {
            quarantine: QuarantinePolicy {
                reorder_buffer: 1,
                ..QuarantinePolicy::default()
            },
            ..CollectorConfig::default()
        };
        let b = &batches;
        let cases: [(CollectorConfig, Vec<EpochBatch>, &str); 7] = [
            (CollectorConfig::default(), b.clone(), ""),
            (
                CollectorConfig::default(),
                [&b[..3], &b[2..]].concat(),
                "1 duplicates dropped",
            ),
            (
                CollectorConfig::default(),
                [&b[..1], &b[2..3], &b[1..2], &b[3..]].concat(),
                "1 reordered healed",
            ),
            (
                CollectorConfig::default(),
                corrupt(2),
                "1 corrupt quarantined, 3 frames dropped, halted",
            ),
            (
                CollectorConfig::default(),
                unknown,
                "deltas for unknown stages dropped",
            ),
            (stalling, b.clone(), "stage 1 (db): 1 stall"),
            // Frames 3 and 4 park, overflow the buffer, and the resync
            // no source can serve halts the stage.
            (
                one_parked,
                [&b[..2], &b[3..5]].concat(),
                "2 frames dropped, halted",
            ),
        ];
        for (cfg, stream, marker) in cases {
            let c = ingest(cfg, &stream);
            let markers = c.degraded_markers().join("; ");
            assert!(markers.contains(marker), "{markers:?} lacks {marker:?}");
            assert_eq!(markers.is_empty(), marker.is_empty(), "{markers:?}");
        }
        // A hole still open at the end: finalize's resync halts the
        // stage, and the frame it parked is the counter that shows it.
        let mut c = ingest(CollectorConfig::default(), &[&b[..2], &b[3..4]].concat());
        c.request_resync(0);
        agree(&c);
        assert_eq!(
            c.degraded_markers(),
            ["stage 0 (front): 1 frames dropped, halted"]
        );
    }
}
