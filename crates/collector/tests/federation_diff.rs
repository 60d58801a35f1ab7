//! Federation-vs-flat differential suite: the fingerprint lineage.
//!
//! Each scenario records one clean 3-tier TPC-W delta stream, splits
//! it into a staggered replica fleet across a leaf/regional/global
//! federation, and byte-compares the root's finalized report against
//! batch `pipeline::analyze` over `replicate_fleet` of the same run's
//! dumps. The root's finalize is itself `analyze` over the dumps the
//! root accumulated, so equal bytes say the tree delivered every
//! replica stage's dump exactly — the end-state check the flat
//! streaming suite (`streaming_diff.rs`) makes, one aggregation tier
//! higher.
//!
//! Coverage mirrors that suite's 36-scenario shape: 6 seeds × 3
//! fan-in shapes × 2 flush/checkpoint cadences, all clean-run
//! byte-identical with full coverage and bounded per-level residency.
//! Fault scenarios then hold the robustness half of the contract:
//! lossy uplinks heal through retransmission, partitions heal after
//! the window, a planted leaf crash recovers from its checkpoint with
//! zero mass loss, an unrecoverable leaf finalizes degraded with
//! honest partial coverage instead of aborting, and a delta fed to a
//! leaf that does not own its stage is dropped and charged to that
//! leaf.
//!
//! The lossy, leaf-crash and regional-crash scenarios also pin the
//! whole `FederationStats` of their run: every frame, ack, retransmit,
//! checkpoint and wire byte. A refactor of the federation must leave
//! the protocol's timing and every frame's bytes as they were; a change
//! *to* the protocol re-captures these numbers and says why they moved.

use whodunit_apps::federation::{
    fan_in_topology, fleet_epochs, leaf_stream, replica_header, run_federation, FaultLinkPolicy,
    FedCrash,
};
use whodunit_apps::tpcw::run_tpcw_streaming;
use whodunit_bench::matrix::{federation_cfg, SEEDS};
use whodunit_collector::federation::{
    CleanLinks, FedNodeId, Federation, FederationConfig, FederationOutput, FederationStats,
};
use whodunit_core::cost::CPU_HZ;
use whodunit_core::delta::{EpochBatch, RecordingSink, StreamHeader};
use whodunit_core::oracle::check_federation;
use whodunit_core::pipeline::{analyze, replicate_fleet, PipelineConfig, PipelineReport};
use whodunit_core::summary::delta_mass;
use whodunit_sim::fault::ChannelFaults;
use whodunit_sim::FaultPlan;
use whodunit_core::ids::ChanId;

const EPOCH_LEN: u64 = CPU_HZ;
const STAGGER: u64 = 2;

/// Fan-in shapes: replica count and per-region leaf counts.
const SHAPES: [(&str, usize, &[usize]); 3] = [
    ("1rx2l", 4, &[2]),
    ("2rx2l", 6, &[2, 2]),
    ("3r-mixed", 8, &[3, 2, 1]),
];

/// Flush/checkpoint cadences (ticks).
const CADENCES: [(u64, u64); 2] = [(1, 4), (4, 8)];

/// Records one clean scenario's delta stream and end-of-run dumps.
fn recorded(seed: u64) -> (StreamHeader, Vec<EpochBatch>, Vec<whodunit_core::stitch::StageDump>) {
    let mut sink = RecordingSink::default();
    let report = run_tpcw_streaming(federation_cfg(seed), EPOCH_LEN, &mut sink);
    (sink.header, sink.batches, report.dumps)
}

/// The flat batch reference: analyze over the replicated fleet dumps.
fn flat_reference(dumps: &[whodunit_core::stitch::StageDump], replicas: usize) -> PipelineReport {
    analyze(replicate_fleet(dumps, replicas), PipelineConfig::default())
}

fn fed_cfg(flush: u64, ckpt: u64) -> FederationConfig {
    FederationConfig {
        flush_every: flush,
        checkpoint_every: ckpt,
        ..FederationConfig::default()
    }
}

fn assert_byte_identical(batch: &PipelineReport, fed: &PipelineReport, what: &str) {
    assert_eq!(
        batch.stitched_text(),
        fed.stitched_text(),
        "stitched text diverged: {what}"
    );
    assert_eq!(
        batch.crosstalk_text(),
        fed.crosstalk_text(),
        "crosstalk matrix diverged: {what}"
    );
    assert_eq!(batch.dumps_json, fed.dumps_json, "dump JSON diverged: {what}");
    assert_eq!(batch.dict, fed.dict, "context dictionary diverged: {what}");
    assert_eq!(
        batch.fingerprint(),
        fed.fingerprint(),
        "fingerprint diverged: {what}"
    );
}

fn assert_clean_and_identical(out: &FederationOutput, reference: &PipelineReport, what: &str) {
    assert_eq!(out.coverage_ppm, 1_000_000, "mass lost: {what}");
    assert!(out.degraded.is_empty(), "degraded clean run: {what}");
    assert_eq!(
        check_federation(&out.evidence),
        vec![],
        "ledger violation: {what}"
    );
    assert_byte_identical(reference, &out.output.report, what);
}

fn run_clean(
    hdr: &StreamHeader,
    batches: &[EpochBatch],
    replicas: usize,
    regions: &[usize],
    cfg: FederationConfig,
) -> FederationOutput {
    run_federation(
        hdr,
        batches,
        replicas,
        STAGGER,
        EPOCH_LEN,
        regions,
        cfg,
        Box::new(CleanLinks),
        &[],
    )
}

#[test]
fn clean_matrix_is_byte_identical_at_every_fan_in() {
    let mut scenarios = 0;
    for &seed in &SEEDS {
        let (hdr, batches, dumps) = recorded(seed);
        for &(shape, replicas, regions) in &SHAPES {
            let reference = flat_reference(&dumps, replicas);
            assert!(
                !reference.profiles.is_empty(),
                "vacuous scenario: seed={seed}"
            );
            for &(flush, ckpt) in &CADENCES {
                scenarios += 1;
                let what = format!("seed={seed} shape={shape} flush={flush} ckpt={ckpt}");
                let out = run_clean(&hdr, &batches, replicas, regions, fed_cfg(flush, ckpt));
                assert_clean_and_identical(&out, &reference, &what);
                // Bounded memory at every level: no node ever held the
                // whole stream, and the summary path compacted it.
                let s = &out.stats;
                assert!(s.frames_sent > 1, "stream collapsed: {what}");
                assert!(
                    s.peak_resident_leaf < s.leaf_events_in,
                    "a leaf held the whole stream: {what}"
                );
                assert!(
                    s.peak_resident_regional < s.leaf_events_in,
                    "a regional held the whole stream: {what}"
                );
                assert!(
                    s.root_events_applied <= s.leaf_events_in,
                    "summary merge inflated the stream: {what}"
                );
                assert_eq!(s.spool_stalls, 0, "clean run backpressured: {what}");
                assert!(
                    s.leaf_link_wire_bytes > 0 && s.regional_link_wire_bytes > 0,
                    "a link level carried no wire bytes: {what}"
                );
                assert_eq!(s.wire_decode_errors, 0, "clean link frame failed decode: {what}");
            }
        }
    }
    assert_eq!(scenarios, 36);
}

#[test]
fn lossy_uplinks_heal_through_retransmission() {
    let (hdr, batches, dumps) = recorded(5);
    let (_, replicas, regions) = SHAPES[1];
    let reference = flat_reference(&dumps, replicas);
    let plan = FaultPlan::new(0xfed5).default_channel_faults(ChannelFaults {
        drop_p: 0.10,
        dup_p: 0.05,
        delay_p: 0.10,
        delay_cycles: 3,
    });
    let out = run_federation(
        &hdr,
        &batches,
        replicas,
        STAGGER,
        EPOCH_LEN,
        regions,
        fed_cfg(2, 4),
        Box::new(FaultLinkPolicy::new(plan)),
        &[],
    );
    assert_eq!(
        out.stats,
        FederationStats {
            ticks: 93,
            frames_sent: 56,
            retransmits: 22,
            frames_lost: 5,
            acks_sent: 100,
            acks_lost: 14,
            frames_delivered: 56,
            dup_frames: 21,
            healed_frames: 18,
            corrupt_frames: 0,
            park_overflow: 0,
            rejected_frames: 0,
            dropped_to_dead: 0,
            checkpoints: 138,
            crashes: 0,
            recoveries: 0,
            input_resyncs: 0,
            missed_batches: 0,
            spool_stalls: 0,
            foreign_deltas: 0,
            input_errors: 0,
            peak_resident_leaf: 672,
            peak_resident_regional: 762,
            peak_resident_root: 86,
            leaf_events_in: 1836,
            root_events_applied: 1446,
            leaf_link_wire_bytes: 24330,
            regional_link_wire_bytes: 14929,
            wire_decode_errors: 0,
        },
        "protocol counters moved"
    );
    let s = &out.stats;
    assert!(s.frames_lost + s.acks_lost > 0, "plan never fired");
    assert!(s.retransmits > 0, "losses never forced a retry");
    assert!(s.dup_frames > 0, "duplicates never reached a receiver");
    // Sent counters are counted at offer time, before the link decides.
    assert!(s.acks_lost > 0 && s.acks_sent >= s.acks_lost, "acks offered < acks lost");
    assert!(
        s.frames_sent + s.retransmits >= s.frames_lost,
        "frames offered < frames lost"
    );
    assert!(s.leaf_link_wire_bytes > 0 && s.regional_link_wire_bytes > 0);
    assert_eq!(s.wire_decode_errors, 0);
    assert_clean_and_identical(&out, &reference, "lossy links");
}

#[test]
fn partition_heals_after_the_window() {
    let (hdr, batches, dumps) = recorded(2);
    let (_, replicas, regions) = SHAPES[0];
    let reference = flat_reference(&dumps, replicas);
    // Leaf 0's uplink is ChanId(0); cut it for a window of ticks.
    let plan = FaultPlan::new(1).partition(ChanId(0), 6, 22);
    let out = run_federation(
        &hdr,
        &batches,
        replicas,
        STAGGER,
        EPOCH_LEN,
        regions,
        fed_cfg(2, 4),
        Box::new(FaultLinkPolicy::new(plan)),
        &[],
    );
    assert!(
        out.stats.frames_lost + out.stats.acks_lost > 0,
        "partition never cut a message"
    );
    assert_clean_and_identical(&out, &reference, "partitioned uplink");
}

#[test]
fn planted_leaf_crash_recovers_with_zero_mass_loss() {
    let (hdr, batches, dumps) = recorded(3);
    let (_, replicas, regions) = SHAPES[1];
    let reference = flat_reference(&dumps, replicas);
    let out = run_federation(
        &hdr,
        &batches,
        replicas,
        STAGGER,
        EPOCH_LEN,
        regions,
        fed_cfg(2, 4),
        Box::new(CleanLinks),
        &[FedCrash {
            node: FedNodeId::Leaf(1),
            at: 9,
            recover_at: Some(15),
        }],
    );
    assert_eq!(
        out.stats,
        FederationStats {
            ticks: 38,
            frames_sent: 54,
            retransmits: 0,
            frames_lost: 0,
            acks_sent: 42,
            acks_lost: 0,
            frames_delivered: 52,
            dup_frames: 2,
            healed_frames: 0,
            corrupt_frames: 0,
            park_overflow: 0,
            rejected_frames: 0,
            dropped_to_dead: 1,
            checkpoints: 53,
            crashes: 1,
            recoveries: 1,
            input_resyncs: 1,
            missed_batches: 6,
            spool_stalls: 0,
            foreign_deltas: 0,
            input_errors: 0,
            peak_resident_leaf: 650,
            peak_resident_regional: 765,
            peak_resident_root: 0,
            leaf_events_in: 1914,
            root_events_applied: 1548,
            leaf_link_wire_bytes: 22059,
            regional_link_wire_bytes: 12583,
            wire_decode_errors: 0,
        },
        "protocol counters moved"
    );
    assert_eq!(out.stats.crashes, 1);
    assert_eq!(out.stats.recoveries, 1);
    assert!(out.stats.missed_batches > 0, "crash window saw no input");
    assert_clean_and_identical(&out, &reference, "leaf crash + recovery");
    let rec = &out.recovery[0];
    assert_eq!(rec.leaf, 1);
    let recovered = rec.recovered_epoch.expect("root never saw the recovery");
    assert!(
        recovered >= rec.crash_epoch,
        "recovery latency must be measurable: {rec:?}"
    );
}

#[test]
fn regional_crash_recovers_with_zero_mass_loss() {
    let (hdr, batches, dumps) = recorded(8);
    let (_, replicas, regions) = SHAPES[1];
    let reference = flat_reference(&dumps, replicas);
    let out = run_federation(
        &hdr,
        &batches,
        replicas,
        STAGGER,
        EPOCH_LEN,
        regions,
        fed_cfg(2, 4),
        Box::new(CleanLinks),
        &[FedCrash {
            node: FedNodeId::Regional(0),
            at: 11,
            recover_at: Some(19),
        }],
    );
    assert_eq!(
        out.stats,
        FederationStats {
            ticks: 58,
            frames_sent: 52,
            retransmits: 20,
            frames_lost: 0,
            acks_sent: 44,
            acks_lost: 0,
            frames_delivered: 55,
            dup_frames: 9,
            healed_frames: 8,
            corrupt_frames: 0,
            park_overflow: 0,
            rejected_frames: 0,
            dropped_to_dead: 8,
            checkpoints: 82,
            crashes: 1,
            recoveries: 1,
            input_resyncs: 0,
            missed_batches: 0,
            spool_stalls: 0,
            foreign_deltas: 0,
            input_errors: 0,
            peak_resident_leaf: 601,
            peak_resident_regional: 704,
            peak_resident_root: 0,
            leaf_events_in: 1770,
            root_events_applied: 1363,
            leaf_link_wire_bytes: 28763,
            regional_link_wire_bytes: 12041,
            wire_decode_errors: 0,
        },
        "protocol counters moved"
    );
    assert_eq!(out.stats.recoveries, 1);
    assert_clean_and_identical(&out, &reference, "regional crash + recovery");
}

#[test]
fn unrecoverable_leaf_finalizes_degraded_not_aborted() {
    let (hdr, batches, _) = recorded(1);
    let (_, replicas, regions) = SHAPES[0];
    let mut cfg = fed_cfg(2, 4);
    cfg.deadline_ticks = 128;
    let out = run_federation(
        &hdr,
        &batches,
        replicas,
        STAGGER,
        EPOCH_LEN,
        regions,
        cfg,
        Box::new(CleanLinks),
        &[FedCrash {
            node: FedNodeId::Leaf(0),
            at: 7,
            recover_at: None,
        }],
    );
    assert!(out.coverage_ppm < 1_000_000, "lost subtree cannot be full");
    assert!(out.coverage_ppm > 0, "surviving subtree must still report");
    assert_eq!(out.degraded, vec!["leaf0".to_string()]);
    assert!(out.evidence.subtrees[0].degraded);
    assert!(out.evidence.subtrees[0].delivered < out.evidence.subtrees[0].truth);
    // The ledger is honest, so the oracle passes despite the loss...
    assert_eq!(check_federation(&out.evidence), vec![]);
    // ...and the surviving subtree's profiles still finalized.
    assert!(!out.output.report.profiles.is_empty());
    assert!(out.topology.root.children[0].children[0].degraded);
}

/// A delta handed to a leaf that does not own its stage — here a copy
/// of one the owner is fed in the same round — is dropped and counted,
/// and its mass is charged to the leaf it was fed to. It never reaches
/// an emitter mirror, which holds its leaf's own stages' stream only:
/// the owner's crash, taken after the copy went by, seeds the owner's
/// mirror, and the recovery still resyncs from it to the flat answer.
#[test]
fn foreign_delta_is_dropped_charged_to_its_feeder_and_kept_out_of_the_mirror() {
    let (hdr, batches, dumps) = recorded(4);
    let (_, replicas, regions) = SHAPES[0];
    let reference = flat_reference(&dumps, replicas);
    let (topo, ranges) = fan_in_topology(replicas, hdr.stages.len(), regions);
    assert_eq!(ranges.len(), 2, "one region of two leaves");
    let total = fleet_epochs(batches.len(), replicas, STAGGER);
    let mut streams: Vec<Vec<EpochBatch>> = ranges
        .iter()
        .map(|&(r0, r1)| leaf_stream(&hdr, &batches, r0, r1, STAGGER, total, EPOCH_LEN))
        .collect();
    // The stray: leaf 1's first delta with mass, also fed to leaf 0,
    // which comes first in every round.
    let (at, stray) = streams[1]
        .iter()
        .find_map(|b| {
            let d = b.deltas.iter().find(|d| delta_mass(d) > 0)?;
            Some((b.epoch, d.clone()))
        })
        .expect("leaf 1 is fed mass");
    let host = streams[0]
        .iter_mut()
        .find(|b| b.epoch == at)
        .expect("leaf 0 is fed in the stray's round");
    host.deltas.push(stray.clone());

    let mut fed = Federation::new(
        &replica_header(&hdr, replicas),
        &topo,
        fed_cfg(2, 4),
        Box::new(CleanLinks),
    );
    fed.crash(FedNodeId::Leaf(1), at + 3, Some(at + 9));
    let mut cursors = [0usize; 2];
    for ge in 0..total {
        for (leaf, stream) in streams.iter().enumerate() {
            if let Some(b) = stream.get(cursors[leaf]).filter(|b| b.epoch == ge) {
                fed.feed(leaf, b);
                cursors[leaf] += 1;
            }
        }
        fed.tick();
    }
    let out = fed.finalize();

    let s = &out.stats;
    assert_eq!(s.foreign_deltas, 1);
    assert_eq!((s.crashes, s.recoveries), (1, 1));
    assert!(s.missed_batches > 0, "the crash window saw no input");
    assert!(s.input_resyncs > 0, "the owner never resynced");
    let [feeder, owner] = [&out.evidence.subtrees[0], &out.evidence.subtrees[1]];
    assert_eq!(feeder.truth - feeder.delivered, delta_mass(&stray));
    assert!(feeder.degraded);
    assert_eq!(owner.delivered, owner.truth);
    assert!(!owner.degraded);
    assert_eq!(out.degraded, vec!["leaf0".to_string()]);
    assert!(out.coverage_ppm < 1_000_000);
    assert_eq!(check_federation(&out.evidence), vec![]);
    assert_byte_identical(
        &reference,
        &out.output.report,
        "foreign delta + owner resync",
    );
}

/// A misreporting root would be caught: fabricate the evidence a buggy
/// implementation could emit and watch the oracle object.
#[test]
fn oracle_rejects_silent_mass_drop() {
    let (hdr, batches, _) = recorded(1);
    let (_, replicas, regions) = SHAPES[0];
    let out = run_clean(&hdr, &batches, replicas, regions, fed_cfg(2, 4));
    let mut ev = out.evidence.clone();
    // Pretend a subtree delivered everything when mass is missing.
    ev.subtrees[0].delivered -= 1;
    assert!(
        !check_federation(&ev).is_empty(),
        "oracle must flag a non-degraded subtree that lost mass"
    );
}
