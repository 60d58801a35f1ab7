//! Streaming-vs-batch differential suite: the snapshot gate and the
//! end-state check.
//!
//! `Collector::finalize` is batch `pipeline::analyze` over the dumps the
//! collector accumulated, so the incremental state it keeps — origin
//! trees, tier cycles, the crosstalk table — is read only by live
//! snapshots. That is where this suite holds it: in the clean and faulty
//! matrices, every snapshot taken after a drained batch with no origin
//! walk pending must show what `analyze` over the
//! same prefix of the stream reports (`snapshot_oracle`: top paths, hot
//! paths, tiers, hotspots). The finalized report is then byte-compared
//! with `analyze` over the run's own end-of-run dumps:
//!
//! - the stitched per-transaction profile text,
//! - the rendered crosstalk matrix,
//! - the re-serialized dump JSON,
//! - the sharded context dictionary,
//! - the report fingerprint,
//!
//! which checks that the accumulators rebuilt every stage's dump. Under
//! damage, whatever a run finalizes to, healed or degraded, must have
//! accumulated only dumps that validate ([`assert_dumps_validate`]) —
//! never invented mass.
//!
//! Coverage mirrors `core/tests/parallel_diff.rs` through the shared
//! corpus in `whodunit_bench::matrix`: 6 seeds × 3 schedule policies
//! (fifo, random, perturb) × 2 fault plans (clean, faulty) = 36
//! scenarios, each recorded once and replayed through the collector.
//! A subset additionally cross-checks that the epoch-chunked simulation
//! run is bit-identical to the unchunked one, one scenario sweeps epoch
//! lengths, and a staggered 12-replica fleet finalizes byte-identical
//! to batch over the replicated dumps and holds the wire size bound.

mod snapshot_oracle;

use snapshot_oracle::{SnapshotGate, Tally};
use whodunit_apps::tpcw::{run_tpcw, run_tpcw_streaming, TpcwConfig};
use whodunit_bench::matrix::{scenario_cfg, schedules, SEEDS};
use whodunit_bench::{fleet_config, fleet_stream};
use whodunit_collector::{Collector, CollectorConfig, CollectorOutput};
use whodunit_core::cost::CPU_HZ;
use whodunit_core::delta::RecordingSink;
use whodunit_core::pipeline::{analyze, replicate_fleet, PipelineConfig, PipelineReport};
use whodunit_sim::sched::SchedulePolicy;

const EPOCH_LEN: u64 = CPU_HZ;

/// Runs one scenario through the streaming path and returns the
/// collector output plus the batch reference computed from the *same*
/// run's end-of-run dumps.
fn run_scenario(
    cfg: TpcwConfig,
    epoch_len: u64,
    ccfg: CollectorConfig,
) -> (CollectorOutput, PipelineReport) {
    let mut collector = Collector::new(ccfg);
    let report = run_tpcw_streaming(cfg, epoch_len, &mut collector);
    let out = collector.finalize();
    let batch = analyze(report.dumps, PipelineConfig::default());
    (out, batch)
}

/// Byte-compares every deterministic output surface of two reports.
fn assert_byte_identical(batch: &PipelineReport, streamed: &PipelineReport, what: &str) {
    assert_eq!(
        batch.stitched_text(),
        streamed.stitched_text(),
        "stitched text diverged: {what}"
    );
    assert_eq!(
        batch.crosstalk_text(),
        streamed.crosstalk_text(),
        "crosstalk matrix diverged: {what}"
    );
    assert_eq!(
        batch.dumps_json, streamed.dumps_json,
        "dump JSON diverged: {what}"
    );
    assert_eq!(
        batch.dict, streamed.dict,
        "context dictionary diverged: {what}"
    );
    assert_eq!(
        batch.fingerprint(),
        streamed.fingerprint(),
        "fingerprint diverged: {what}"
    );
}

/// What is left to check of a report that is `analyze` over the
/// collector's own dumps, however damaged the stream: every dump it
/// accumulated validates, so no stage was skipped.
fn assert_dumps_validate(out: &CollectorOutput, what: &str) {
    let warnings = &out.report.warnings;
    assert!(
        warnings.is_empty(),
        "accumulated an invalid dump: {what}: {warnings:?}"
    );
}

/// Snapshots the matrices must compare in all, per fault plan: at least
/// one per scenario.
const MIN_MATRIX_SNAPSHOTS: u64 = 18;

fn run_matrix(faulty: bool) {
    let mut scenarios = 0;
    let mut gated = Tally::default();
    for &seed in &SEEDS {
        for sched in schedules(seed) {
            scenarios += 1;
            let what = format!("seed={seed} sched={sched:?} faulty={faulty}");

            // One simulation run, recorded, then replayed.
            let mut sink = RecordingSink::default();
            let report =
                run_tpcw_streaming(scenario_cfg(seed, sched, faulty), EPOCH_LEN, &mut sink);
            let batch = analyze(report.dumps, PipelineConfig::default());
            assert!(
                !batch.profiles.is_empty(),
                "scenario produced no profiles (vacuous): {what}"
            );

            let mut c = Collector::new(CollectorConfig::default());
            c.start(&sink.header);
            let mut gate = SnapshotGate::new(&sink.header);
            for b in &sink.batches {
                assert!(c.enqueue(b.clone()), "unbounded queue refused a batch");
                c.drain();
                gate.after(b, &mut c, &what);
            }
            if !faulty {
                assert!(gate.tally.snapshots > 0, "no snapshot compared: {what}");
            }
            gated += gate.tally;
            let out = c.finalize();
            assert!(
                out.stats.batches > 1,
                "stream collapsed to one batch: {what}"
            );
            assert_byte_identical(&batch, &out.report, &what);
            assert_eq!(
                out.stats.pending_edges_at_flush,
                out.report.unresolved.len() as u64,
                "the live pending-edge gauge is not the unresolved edges: {what}"
            );
            if !faulty {
                assert_eq!(
                    out.stats.pending_walks_at_flush, 0,
                    "pending walks leaked on a clean run: {what}"
                );
                assert_eq!(
                    out.stats.pending_edges_at_flush, 0,
                    "pending edges leaked on a clean run: {what}"
                );
            }
        }
    }
    assert_eq!(scenarios, 18);
    println!("snapshot gate, faulty={faulty}: {gated}");
    assert!(
        gated.snapshots >= MIN_MATRIX_SNAPSHOTS,
        "{gated}: under {MIN_MATRIX_SNAPSHOTS} snapshots"
    );
}

#[test]
fn clean_streams_match_batch_byte_for_byte() {
    run_matrix(false);
}

#[test]
fn faulty_streams_match_batch_byte_for_byte() {
    run_matrix(true);
}

/// The epoch-chunked engine run must be bit-identical to the unchunked
/// one — streaming emission must not perturb the simulation itself.
/// (Subset of the matrix: this needs a second full simulation run per
/// scenario.)
#[test]
fn chunked_run_is_bit_identical_to_unchunked() {
    for &seed in &[1u64, 13] {
        for faulty in [false, true] {
            let what = format!("seed={seed} faulty={faulty}");
            let cfg = scenario_cfg(seed, SchedulePolicy::Fifo, faulty);
            let mut sink = RecordingSink::default();
            let streamed = run_tpcw_streaming(cfg.clone(), EPOCH_LEN, &mut sink);
            let batch = run_tpcw(cfg);
            assert_eq!(batch.dumps, streamed.dumps, "dumps diverged: {what}");
            assert_eq!(
                batch.wire_bytes, streamed.wire_bytes,
                "wire traffic diverged: {what}"
            );
            assert_eq!(
                batch.tail.compute_truth, streamed.tail.compute_truth,
                "ground-truth compute diverged: {what}"
            );
            assert!(
                sink.batches.len() > 1,
                "stream collapsed to one batch: {what}"
            );
        }
    }
}

/// Epoch length is a performance knob, not semantics: every length
/// must finalize to the same bytes.
#[test]
fn epoch_sweep_preserves_end_state() {
    let cfg = scenario_cfg(2, SchedulePolicy::Fifo, false);
    let batch = analyze(run_tpcw(cfg.clone()).dumps, PipelineConfig::default());
    for epoch_len in [CPU_HZ / 4, CPU_HZ, 5 * CPU_HZ] {
        let what = format!("epoch_len={epoch_len}");
        let (out, _) = run_scenario(cfg.clone(), epoch_len, CollectorConfig::default());
        assert_byte_identical(&batch, &out.report, &what);
    }
}

/// Wire frames must average at most this many bytes per change event:
/// 0.2x the 74.1 B/event the retired JSON edge encoding cost.
const WIRE_MAX_BYTES_PER_EVENT: f64 = 14.8;

/// The deployment shape: 12 replicas of one recorded stack whose
/// streams start 2 epochs apart, so machines come and go. The stream
/// must finalize byte-identical to batch over the replicated dumps with
/// nothing pending; the same stream shipped as wire frames must do the
/// same and stay inside the size bound.
#[test]
fn staggered_fleet_matches_batch_and_packs_on_the_wire() {
    let (replicas, stagger) = (12, 2);
    let mut sink = RecordingSink::default();
    let report = run_tpcw_streaming(fleet_config(12, 12), EPOCH_LEN, &mut sink);
    let reference = analyze(
        replicate_fleet(&report.dumps, replicas),
        PipelineConfig::default(),
    );
    let (hdr, stream) = fleet_stream(&sink.header, &sink.batches, replicas, stagger);

    let mut c = Collector::new(CollectorConfig::default());
    c.start(&hdr);
    for b in &stream {
        assert!(c.enqueue(b.clone()), "unbounded queue refused a batch");
        c.drain();
    }
    let out = c.finalize();
    let s = &out.stats;
    assert_byte_identical(&reference, &out.report, "fleet");
    assert_eq!(s.pending_walks_at_flush, 0, "pending walks leaked");
    assert_eq!(s.pending_edges_at_flush, 0, "pending edges leaked");

    let (out, wire_bytes) = ingest_clean_wire(&hdr, &stream, "fleet wire");
    assert_byte_identical(&reference, &out.report, "fleet wire");
    let events: u64 = stream.iter().map(|b| b.events()).sum();
    let per_event = wire_bytes as f64 / events as f64;
    assert!(
        per_event <= WIRE_MAX_BYTES_PER_EVENT,
        "frames pack to {per_event:.3} B/event over {events} events \
         (9.412 when this bound was set), over the {WIRE_MAX_BYTES_PER_EVENT} bound"
    );
}

/// How often a collector is read changes when its origin trees are
/// built, never what a snapshot shows: a context folds at the first
/// snapshot after its walk settles, then with every delta. One
/// staggered fleet stream, snapshotted after every batch, every 4th,
/// every 8th and only at the end: every snapshot passes the gate, and
/// the four final snapshots are equal.
#[test]
fn snapshot_cadence_changes_no_snapshot() {
    let mut sink = RecordingSink::default();
    run_tpcw_streaming(fleet_config(12, 12), EPOCH_LEN, &mut sink);
    let (hdr, stream) = fleet_stream(&sink.header, &sink.batches, 12, 2);
    let mut finals = Vec::new();
    // Every `every` batches; 0 is only at the end.
    for every in [1, 4, 8, 0] {
        let what = format!("snapshot every {every} batches");
        let mut c = Collector::new(CollectorConfig::default());
        c.start(&hdr);
        let mut gate = SnapshotGate::new(&hdr);
        for (i, b) in stream.iter().enumerate() {
            assert!(c.enqueue(b.clone()), "unbounded queue refused a batch");
            c.drain();
            gate.feed(b);
            if every > 0 && (i + 1) % every == 0 {
                gate.check(&mut c, &what);
            }
        }
        let last = gate.check(&mut c, &what);
        println!("{what}: {}", gate.tally);
        assert_eq!(
            last.pending_walks, 0,
            "the final snapshot was skipped: {what}"
        );
        assert!(last.origins > 0 && !last.top_paths.is_empty(), "{what}");
        finals.push(last);
    }
    assert!(
        finals.windows(2).all(|w| w[0] == w[1]),
        "cadences disagree on the final snapshot"
    );
}

/// The bounded ingest queue refuses batches at capacity and counts
/// the refusals; draining between offers keeps the stream lossless.
#[test]
fn backpressure_counts_throttles_and_stays_lossless() {
    let cfg = scenario_cfg(3, SchedulePolicy::Fifo, false);
    let mut sink = RecordingSink::default();
    let report = run_tpcw_streaming(cfg, CPU_HZ, &mut sink);
    let batch_ref = analyze(report.dumps, PipelineConfig::default());

    let mut c = Collector::new(CollectorConfig {
        max_queue: 2,
        ..CollectorConfig::default()
    });
    c.start(&sink.header);
    let mut throttles = 0u64;
    for b in &sink.batches {
        // Offer without draining: every third batch overflows the
        // 2-deep queue and must be re-offered after a poll.
        if !c.enqueue(b.clone()) {
            throttles += 1;
            c.poll();
            assert!(c.enqueue(b.clone()), "re-offer after poll must succeed");
        }
    }
    let out = c.finalize();
    assert!(throttles > 0, "queue never filled; backpressure untested");
    assert_eq!(out.stats.throttled, throttles);
    assert!(out.stats.peak_queued <= 2);
    assert_byte_identical(&batch_ref, &out.report, "backpressure run");
}

// ---------------------------------------------------------------------
// Self-healing ingest: damaged streams with a ResyncSource attached
// must heal back to byte-identity through quarantine and resync, with
// the damage visible only as explicit degraded markers in the stats,
// never in the report; what cannot heal halts its stage and finalizes
// degraded. Every output's dumps are checked to validate inside the
// ingest helpers.
// ---------------------------------------------------------------------

use std::cell::RefCell;
use std::rc::Rc;
use whodunit_collector::QuarantinePolicy;
use whodunit_core::delta::{EpochBatch, RecordedResync, ResyncSource, StreamHeader};
use whodunit_core::stitch::StageDump;

/// Shares the emitter-side reference state between the test (which
/// advances it in lockstep with the clean stream) and the collector
/// (which snapshots it on resync).
#[derive(Clone)]
struct SharedResync(Rc<RefCell<RecordedResync>>);

impl ResyncSource for SharedResync {
    fn snapshot(&self, stage: usize) -> Option<(StageDump, u64)> {
        self.0.borrow().snapshot(stage)
    }
}

/// One recorded clean scenario: header, batches, and the batch-pipeline
/// reference report over the same run's dumps.
fn recorded_scenario() -> (StreamHeader, Vec<EpochBatch>, PipelineReport) {
    let cfg = scenario_cfg(2, SchedulePolicy::Fifo, false);
    let mut sink = RecordingSink::default();
    let report = run_tpcw_streaming(cfg, EPOCH_LEN, &mut sink);
    let reference = analyze(report.dumps, PipelineConfig::default());
    (sink.header, sink.batches, reference)
}

/// Ingests `damaged` while advancing the resync reference with the
/// corresponding `clean` batch first (the emitter is always at least
/// as current as the stream it just sent).
fn ingest_damaged(
    header: &StreamHeader,
    clean: &[EpochBatch],
    damaged: &[EpochBatch],
    ccfg: CollectorConfig,
) -> CollectorOutput {
    ingest_damaged_via(header, clean, damaged, ccfg, |src| Box::new(src))
}

/// [`ingest_damaged`] with the collector's view of the reference passed
/// through `wrap` — a source may misreport what the emitter holds.
fn ingest_damaged_via(
    header: &StreamHeader,
    clean: &[EpochBatch],
    damaged: &[EpochBatch],
    ccfg: CollectorConfig,
    wrap: impl FnOnce(SharedResync) -> Box<dyn ResyncSource>,
) -> CollectorOutput {
    let mut c = Collector::new(ccfg);
    c.start(header);
    let shared = Rc::new(RefCell::new(RecordedResync::new(header)));
    c.set_resync_source(wrap(SharedResync(shared.clone())));
    for (orig, dam) in clean.iter().zip(damaged) {
        shared.borrow_mut().advance(orig);
        assert!(c.enqueue(dam.clone()), "unbounded queue refused a batch");
        c.drain();
    }
    let out = c.finalize();
    assert_dumps_validate(&out, "damaged stream");
    out
}

/// Picks a mid-stream batch index whose batch carries a delta for a
/// stage that also appears in the following `lookahead` batches.
fn pick_damage_site(batches: &[EpochBatch], lookahead: usize) -> (usize, usize, usize) {
    let mid = batches.len() / 2;
    for bi in mid..batches.len().saturating_sub(lookahead + 1) {
        for (di, d) in batches[bi].deltas.iter().enumerate() {
            let stage = d.stage;
            let following = batches[bi + 1..]
                .iter()
                .take(lookahead)
                .filter(|b| b.deltas.iter().any(|x| x.stage == stage))
                .count();
            if following == lookahead && !d.ccts.is_empty() {
                return (bi, di, stage);
            }
        }
    }
    panic!("no damage site with {lookahead} follow-up frames found");
}

#[test]
fn corrupt_checksum_frame_is_quarantined_and_resynced() {
    let (header, batches, reference) = recorded_scenario();
    let (bi, di, stage) = pick_damage_site(&batches, 1);
    let mut damaged = batches.clone();
    damaged[bi].deltas[di].checksum ^= 0xdead_beef;

    let out = ingest_damaged(&header, &batches, &damaged, CollectorConfig::default());
    assert_eq!(out.stats.quarantined, 1);
    assert_eq!(out.stats.resyncs, 1);
    assert_eq!(out.stats.delta_errors, 0, "quarantine is not an error");
    assert_byte_identical(&reference, &out.report, "corrupt checksum");
    let marker = out
        .stats
        .degraded
        .iter()
        .find(|m| m.contains(&format!("stage {stage} ")))
        .expect("degraded marker for the damaged stage");
    assert!(marker.contains("1 corrupt quarantined"), "{marker}");
    assert!(marker.contains("1 resync"), "{marker}");
}

#[test]
fn truncated_frame_is_quarantined_and_resynced() {
    let (header, batches, reference) = recorded_scenario();
    let (bi, di, _) = pick_damage_site(&batches, 1);
    let mut damaged = batches.clone();
    // Truncate the payload without fixing the checksum — the wire
    // signature of a cut-short frame.
    damaged[bi].deltas[di].ccts.pop();

    let out = ingest_damaged(&header, &batches, &damaged, CollectorConfig::default());
    assert_eq!(out.stats.quarantined, 1);
    assert_eq!(out.stats.resyncs, 1);
    assert_byte_identical(&reference, &out.report, "truncated frame");
}

#[test]
fn duplicated_frame_is_dropped_without_resync() {
    let (header, batches, reference) = recorded_scenario();
    let (bi, di, _) = pick_damage_site(&batches, 1);
    let mut damaged = batches.clone();
    let dup = damaged[bi].deltas[di].clone();
    damaged[bi + 1].deltas.push(dup);

    let out = ingest_damaged(&header, &batches, &damaged, CollectorConfig::default());
    assert_eq!(out.stats.dup_frames, 1);
    assert_eq!(out.stats.resyncs, 0, "a duplicate needs no resync");
    assert_eq!(out.stats.quarantined, 0);
    assert_byte_identical(&reference, &out.report, "duplicated frame");
    assert!(
        out.stats
            .degraded
            .iter()
            .any(|m| m.contains("1 duplicates dropped")),
        "degraded: {:?}",
        out.stats.degraded
    );
}

#[test]
fn reordered_frame_parks_and_heals_without_resync() {
    let (header, batches, reference) = recorded_scenario();
    let (bi, di, _) = pick_damage_site(&batches, 1);
    let mut damaged = batches.clone();
    // Deliver the frame one batch late, after its successor: the
    // successor parks on the seq gap, the late frame fills the hole,
    // and the parked one heals in order.
    let late = damaged[bi].deltas.remove(di);
    damaged[bi + 1].deltas.push(late);

    let out = ingest_damaged(&header, &batches, &damaged, CollectorConfig::default());
    assert_eq!(out.stats.healed_frames, 1);
    assert_eq!(out.stats.resyncs, 0, "reorder heals without resync");
    assert_byte_identical(&reference, &out.report, "reordered frame");
    assert!(
        out.stats
            .degraded
            .iter()
            .any(|m| m.contains("1 reordered healed")),
        "degraded: {:?}",
        out.stats.degraded
    );
}

#[test]
fn lost_frame_overflows_the_reorder_buffer_into_a_resync() {
    let (header, batches, reference) = recorded_scenario();
    let lookahead = 3;
    let (bi, di, _) = pick_damage_site(&batches, lookahead);
    let mut damaged = batches.clone();
    damaged[bi].deltas.remove(di);

    // A reorder buffer smaller than the follow-up traffic: the hole
    // never fills, the parked frames overflow, and the catch-up diff
    // resync recovers the lost increment from the emitter snapshot.
    let out = ingest_damaged(
        &header,
        &batches,
        &damaged,
        CollectorConfig {
            quarantine: QuarantinePolicy {
                reorder_buffer: lookahead - 1,
                ..QuarantinePolicy::default()
            },
            ..CollectorConfig::default()
        },
    );
    assert_eq!(out.stats.resyncs, 1);
    // The parked frames the resync made redundant are neither dropped
    // by a halt nor healed from the buffer.
    assert_eq!(out.stats.dropped_frames, 0);
    assert_eq!(out.stats.healed_frames, 0);
    assert_byte_identical(&reference, &out.report, "lost frame");
    assert!(
        out.stats.degraded.iter().any(|m| m.contains("resync")),
        "degraded: {:?}",
        out.stats.degraded
    );
}

#[test]
fn hole_still_open_at_end_of_stream_is_resynced_at_finalize() {
    let (header, batches, reference) = recorded_scenario();
    // Lose a stage's second-to-last delta: its last one parks behind
    // the hole and nothing follows to overflow the reorder buffer.
    let stage = 0;
    let carrying: Vec<usize> = (0..batches.len())
        .filter(|&bi| batches[bi].deltas.iter().any(|d| d.stage == stage))
        .collect();
    let bi = carrying[carrying.len() - 2];
    let mut damaged = batches.clone();
    damaged[bi].deltas.retain(|d| d.stage != stage);

    let out = ingest_damaged(&header, &batches, &damaged, CollectorConfig::default());
    assert_eq!(
        out.stats.resyncs, 1,
        "the open hole is loss, not reordering"
    );
    assert_byte_identical(&reference, &out.report, "hole open at end of stream");
    assert!(
        out.stats
            .degraded
            .iter()
            .any(|m| m.contains("stage 0 ") && m.contains("1 resync")),
        "degraded: {:?}",
        out.stats.degraded
    );
}

/// Ingests `damaged` with no resync source attached — how the sentinel
/// sink, the federation root and every `benchmark/` workload run.
fn ingest_sourceless(header: &StreamHeader, damaged: &[EpochBatch]) -> CollectorOutput {
    let mut c = Collector::new(CollectorConfig::default());
    c.start(header);
    for b in damaged {
        assert!(c.enqueue(b.clone()), "unbounded queue refused a batch");
        c.drain();
    }
    let out = c.finalize();
    assert_dumps_validate(&out, "sourceless damaged stream");
    out
}

/// The one `degraded` line naming `stage`.
fn marker_of(out: &CollectorOutput, stage: usize) -> &str {
    out.stats
        .degraded
        .iter()
        .find(|m| m.starts_with(&format!("stage {stage} ")))
        .unwrap_or_else(|| panic!("no marker for stage {stage}: {:?}", out.stats.degraded))
}

#[test]
fn damage_without_resync_source_halts_the_stage_degraded() {
    // The sourceless contract: damage takes the same route, and the
    // first resync the stage needs halts it. The stage keeps what it
    // had accumulated, later frames for it are dropped and counted,
    // every other stage is untouched, and the marker says all of it.
    let (header, batches, reference) = recorded_scenario();
    let (bi, di, stage) = pick_damage_site(&batches, 1);
    let mut damaged = batches.clone();
    damaged[bi].deltas[di].checksum ^= 1;

    let out = ingest_sourceless(&header, &damaged);
    assert_eq!(out.stats.quarantined, 1);
    assert_eq!(out.stats.resyncs, 0, "nothing to resync from");
    assert_eq!(out.stats.delta_errors, 0, "the frame named a known stage");
    assert!(
        out.stats.dropped_frames >= 1,
        "follow-up frames are dropped"
    );
    assert_eq!(out.stats.degraded.len(), 1, "{:?}", out.stats.degraded);
    let marker = marker_of(&out, stage);
    assert!(marker.contains("1 corrupt quarantined"), "{marker}");
    assert!(marker.contains("frames dropped"), "{marker}");
    assert!(marker.ends_with("halted"), "{marker}");
    // Only the halted stage's dump lags the reference.
    for (si, (got, want)) in out.report.stages.iter().zip(&reference.stages).enumerate() {
        assert_eq!(got == want, si != stage, "stage {si}");
    }
}

#[test]
fn delta_for_an_unknown_stage_is_dropped_counted_and_named() {
    // Re-addressed past the header, a delta has no stage to be
    // quarantined under: it is dropped and counted, and the stage it
    // came from sees a sequence gap like any other loss.
    let (header, batches, reference) = recorded_scenario();
    let (bi, di, stage) = pick_damage_site(&batches, 1);
    let mut damaged = batches.clone();
    let d = &mut damaged[bi].deltas[di];
    d.stage = header.stages.len() + 3;
    d.checksum = d.compute_checksum();
    let line = "1 deltas for unknown stages dropped".to_owned();

    // With a source the real stage heals; the dropped delta still shows.
    let out = ingest_damaged(&header, &batches, &damaged, CollectorConfig::default());
    assert_eq!(out.stats.delta_errors, 1);
    assert_eq!(out.stats.quarantined, 0, "nothing to quarantine it under");
    assert!(out.stats.healed_frames + out.stats.resyncs >= 1);
    assert_byte_identical(&reference, &out.report, "unknown-stage delta, healed");
    assert_eq!(out.stats.degraded.last(), Some(&line));
    marker_of(&out, stage);

    // Without one the real stage halts on the hole it left.
    let out = ingest_sourceless(&header, &damaged);
    assert_eq!(out.stats.delta_errors, 1);
    assert_eq!(out.stats.degraded.last(), Some(&line));
    assert!(marker_of(&out, stage).ends_with("halted"));
}

#[test]
fn cross_stage_duplicate_mint_is_rejected_before_it_is_indexed() {
    // A checksum-valid delta re-mints, for a fresh context of its own,
    // a synopsis another stage already minted. Batch resolves such a
    // duplicate last-insert-wins over the whole run; an insert-only
    // index cannot, so the frame is refused whole as inconsistent.
    let (header, batches, reference) = recorded_scenario();
    let (bi, di, stage) = pick_damage_site(&batches, 1);
    let stolen = batches[..bi]
        .iter()
        .flat_map(|b| &b.deltas)
        .filter(|d| d.stage != stage)
        .flat_map(|d| &d.new_synopses)
        .next()
        .expect("another stage minted earlier")
        .0;
    let fresh_ctx = batches[..=bi]
        .iter()
        .flat_map(|b| &b.deltas)
        .filter(|d| d.stage == stage)
        .map(|d| d.new_contexts.len() as u32)
        .sum::<u32>();
    let mut damaged = batches.clone();
    let d = &mut damaged[bi].deltas[di];
    d.new_contexts.push(Default::default());
    d.new_synopses.push((stolen, fresh_ctx));
    d.checksum = d.compute_checksum();

    // With a source: quarantined, resynced, byte-identical.
    let out = ingest_damaged(&header, &batches, &damaged, CollectorConfig::default());
    assert_eq!((out.stats.quarantined, out.stats.resyncs), (1, 1));
    assert_byte_identical(&reference, &out.report, "duplicate mint, healed");

    // Without: the minting stage halts; the owner keeps its synopsis,
    // so no chain anywhere resolves to the impostor.
    let out = ingest_sourceless(&header, &damaged);
    assert_eq!(out.stats.quarantined, 1);
    assert!(marker_of(&out, stage).ends_with("halted"));
    let kept = &out.report.stages[stage].synopses;
    assert!(kept.iter().all(|s| s.0 != stolen));
}

/// A source whose snapshots keep only the first frame name: not a
/// monotone extension of anything the collector has accumulated.
struct LyingResync(SharedResync);

impl ResyncSource for LyingResync {
    fn snapshot(&self, stage: usize) -> Option<(StageDump, u64)> {
        let (mut dump, upto) = self.0.snapshot(stage)?;
        dump.frames.truncate(1);
        Some((dump, upto))
    }
}

#[test]
fn snapshot_that_does_not_extend_the_state_halts_the_stage() {
    let (header, batches, _reference) = recorded_scenario();
    let (bi, di, stage) = pick_damage_site(&batches, 1);
    let mut damaged = batches.clone();
    damaged[bi].deltas[di].checksum ^= 1;

    let lying = |src| Box::new(LyingResync(src)) as Box<dyn ResyncSource>;
    let out = ingest_damaged_via(
        &header,
        &batches,
        &damaged,
        CollectorConfig::default(),
        lying,
    );
    assert_eq!(out.stats.quarantined, 1);
    assert_eq!(out.stats.resyncs, 0, "a refused snapshot is not a resync");
    let marker = marker_of(&out, stage);
    assert!(marker.contains("1 corrupt quarantined"), "{marker}");
    assert!(marker.ends_with("halted"), "{marker}");
}

#[test]
fn stalled_stage_is_flagged_by_the_watchdog_and_finalizes_degraded() {
    let (header, batches, _reference) = recorded_scenario();
    // Silence the busiest stage for the back half of the stream.
    let cut = batches.len() / 2;
    let stage = batches[cut]
        .deltas
        .first()
        .map(|d| d.stage)
        .expect("mid-stream batch has deltas");
    let mut damaged = batches.clone();
    for b in damaged.iter_mut().skip(cut) {
        b.deltas.retain(|d| d.stage != stage);
    }

    let out = ingest_damaged(
        &header,
        &batches,
        &damaged,
        CollectorConfig {
            quarantine: QuarantinePolicy {
                stall_epochs: 3,
                ..QuarantinePolicy::default()
            },
            ..CollectorConfig::default()
        },
    );
    assert!(out.stats.stalls >= 1, "watchdog never fired");
    assert!(
        out.stats
            .degraded
            .iter()
            .any(|m| m.contains(&format!("stage {stage} ")) && m.contains("stall")),
        "degraded: {:?}",
        out.stats.degraded
    );
}

// ---------------------------------------------------------------------
// Binary wire ingest (DESIGN.md §16): the same scenarios shipped as
// columnar wire frames must finalize to the same bytes, and damage at
// the *byte* level — truncation, bit flips, reordering of encoded
// frames — must be caught by the envelope checks and healed by the
// same quarantine/resync machinery the delta-level tests above lock.
// ---------------------------------------------------------------------

use whodunit_core::wire::{encode_batch, encode_header};

/// Ingests pre-encoded wire frames while advancing the resync
/// reference with the corresponding clean batch (the wire twin of
/// [`ingest_damaged`]). Returns the output plus the count of frames
/// the codec rejected.
fn ingest_wire(
    header: &StreamHeader,
    clean: &[EpochBatch],
    frames: &[Vec<u8>],
    ccfg: CollectorConfig,
) -> (CollectorOutput, u64) {
    let mut c = Collector::new(ccfg);
    c.start_wire(&encode_header(header))
        .expect("header frame decodes");
    let shared = Rc::new(RefCell::new(RecordedResync::new(header)));
    c.set_resync_source(Box::new(SharedResync(shared.clone())));
    let mut rejected = 0u64;
    for (i, f) in frames.iter().enumerate() {
        if let Some(orig) = clean.get(i) {
            shared.borrow_mut().advance(orig);
        }
        match c.enqueue_wire(f) {
            Ok(accepted) => assert!(accepted, "unbounded queue refused a frame"),
            Err(_) => rejected += 1,
        }
        c.drain();
    }
    let out = c.finalize();
    assert_dumps_validate(&out, "damaged wire stream");
    (out, rejected)
}

/// Picks a mid-stream batch index where *every* stage in the batch has
/// at least `lookahead` follow-up frames — so dropping the whole batch
/// (what an undecodable wire frame becomes) is guaranteed to overflow
/// a `lookahead - 1` reorder buffer into a resync on every stage.
fn pick_batch_site(batches: &[EpochBatch], lookahead: usize) -> usize {
    let mid = batches.len() / 2;
    for bi in mid..batches.len().saturating_sub(lookahead + 1) {
        if batches[bi].deltas.is_empty() {
            continue;
        }
        let ok = batches[bi].deltas.iter().all(|d| {
            batches[bi + 1..]
                .iter()
                .take(lookahead)
                .filter(|b| b.deltas.iter().any(|x| x.stage == d.stage))
                .count()
                == lookahead
        });
        if ok {
            return bi;
        }
    }
    panic!("no batch site with {lookahead} follow-up frames on every stage");
}

/// Ships a clean stream as wire frames: header frame, then every
/// batch encoded and ingested through [`Collector::enqueue_wire`].
/// Asserts the wire counters are clean and returns the output plus
/// the total frame bytes.
fn ingest_clean_wire(
    header: &StreamHeader,
    batches: &[EpochBatch],
    what: &str,
) -> (CollectorOutput, u64) {
    let mut c = Collector::new(CollectorConfig::default());
    c.start_wire(&encode_header(header))
        .expect("header frame decodes");
    let mut wire_bytes = 0u64;
    for b in batches {
        let f = encode_batch(b);
        wire_bytes += f.len() as u64;
        assert!(
            c.enqueue_wire(&f).expect("clean wire frame decodes"),
            "unbounded queue refused a frame: {what}"
        );
        c.drain();
    }
    let out = c.finalize();
    assert_eq!(out.stats.wire_frames, batches.len() as u64, "{what}");
    assert_eq!(out.stats.wire_bytes, wire_bytes, "{what}");
    assert_eq!(out.stats.wire_errors, 0, "{what}");
    (out, wire_bytes)
}

/// The full 36-scenario matrix shipped over the wire: encode every
/// recorded batch, ingest through [`Collector::enqueue_wire`], and
/// byte-compare against the batch pipeline — the wire transport must
/// be invisible in the final report.
fn run_wire_matrix(faulty: bool) {
    let mut scenarios = 0;
    for &seed in &SEEDS {
        for sched in schedules(seed) {
            scenarios += 1;
            let what = format!("seed={seed} sched={sched:?} faulty={faulty} wire");
            let mut sink = RecordingSink::default();
            let report =
                run_tpcw_streaming(scenario_cfg(seed, sched, faulty), EPOCH_LEN, &mut sink);
            let batch = analyze(report.dumps, PipelineConfig::default());

            let (out, _) = ingest_clean_wire(&sink.header, &sink.batches, &what);
            assert_byte_identical(&batch, &out.report, &what);
        }
    }
    assert_eq!(scenarios, 18);
}

#[test]
fn wire_clean_streams_match_batch_byte_for_byte() {
    run_wire_matrix(false);
}

#[test]
fn wire_faulty_streams_match_batch_byte_for_byte() {
    run_wire_matrix(true);
}

#[test]
fn wire_bitflipped_frame_is_rejected_and_healed() {
    let (header, batches, reference) = recorded_scenario();
    let lookahead = 3;
    let bi = pick_batch_site(&batches, lookahead);
    let mut frames: Vec<Vec<u8>> = batches.iter().map(encode_batch).collect();
    // Flip one payload bit mid-body: the envelope digest must catch it.
    let at = frames[bi].len() / 2;
    frames[bi][at] ^= 0x10;

    let (out, rejected) = ingest_wire(
        &header,
        &batches,
        &frames,
        CollectorConfig {
            quarantine: QuarantinePolicy {
                reorder_buffer: lookahead - 1,
                ..QuarantinePolicy::default()
            },
            ..CollectorConfig::default()
        },
    );
    assert_eq!(rejected, 1, "exactly the flipped frame is rejected");
    assert_eq!(out.stats.wire_errors, 1);
    assert!(out.stats.resyncs >= 1, "dropped frame must resync");
    assert_byte_identical(&reference, &out.report, "wire bit flip");
}

#[test]
fn wire_truncated_frame_is_rejected_and_healed() {
    let (header, batches, reference) = recorded_scenario();
    let lookahead = 3;
    let bi = pick_batch_site(&batches, lookahead);
    let mut frames: Vec<Vec<u8>> = batches.iter().map(encode_batch).collect();
    // Cut the frame short — the wire signature of a torn write.
    let keep = frames[bi].len() * 2 / 3;
    frames[bi].truncate(keep);

    let (out, rejected) = ingest_wire(
        &header,
        &batches,
        &frames,
        CollectorConfig {
            quarantine: QuarantinePolicy {
                reorder_buffer: lookahead - 1,
                ..QuarantinePolicy::default()
            },
            ..CollectorConfig::default()
        },
    );
    assert_eq!(rejected, 1);
    assert_eq!(out.stats.wire_errors, 1);
    assert!(out.stats.resyncs >= 1);
    assert_byte_identical(&reference, &out.report, "wire truncation");
}

#[test]
fn wire_reordered_frames_park_and_heal() {
    let (header, batches, reference) = recorded_scenario();
    let bi = pick_batch_site(&batches, 1);
    let mut frames: Vec<Vec<u8>> = batches.iter().map(encode_batch).collect();
    // Swap two adjacent encoded frames: both decode, the early one
    // parks on the seq gap, and the late one fills the hole.
    frames.swap(bi, bi + 1);

    let (out, rejected) = ingest_wire(&header, &batches, &frames, CollectorConfig::default());
    assert_eq!(rejected, 0, "reordered frames still decode");
    assert_eq!(out.stats.wire_errors, 0);
    assert!(out.stats.healed_frames >= 1, "park/heal path never engaged");
    assert_eq!(out.stats.resyncs, 0, "reorder heals without resync");
    assert_byte_identical(&reference, &out.report, "wire reorder");
}

#[test]
fn cycle_peak_queue_gauge_resets_between_drain_cycles() {
    let (header, batches, reference) = recorded_scenario();
    assert!(batches.len() >= 6, "need a few batches to form two cycles");

    let mut c = Collector::new(CollectorConfig::default());
    c.start(&header);
    // Cycle 1: pile up three batches, then drain.
    for b in &batches[..3] {
        assert!(c.enqueue(b.clone()));
    }
    assert_eq!(c.stats().peak_queued, 3);
    assert_eq!(c.stats().cycle_peak_queued, 3);
    c.drain();
    // Cycle 2: a single batch on the now-empty queue must reset the
    // cycle gauge while the all-time peak stays monotone.
    assert!(c.enqueue(batches[3].clone()));
    assert_eq!(c.stats().cycle_peak_queued, 1, "gauge reset on empty queue");
    assert_eq!(c.stats().peak_queued, 3, "all-time peak is monotone");
    let snap = c.snapshot();
    assert_eq!(snap.lag.cycle_peak_queued, 1);
    assert_eq!(snap.lag.peak_queued, 3);
    c.drain();
    for b in &batches[4..] {
        assert!(c.enqueue(b.clone()));
        c.drain();
    }
    let out = c.finalize();
    assert_byte_identical(&reference, &out.report, "lag gauge scenario");
}
