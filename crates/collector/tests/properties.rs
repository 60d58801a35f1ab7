//! Property tests for the streaming collector's ordering invariants,
//! over *synthetic* delta streams whose shape (epoch count, context
//! arrival, cross-stage references, late/missing synopses) is driven
//! by proptest:
//!
//! - **Interleaving invariance**: any epoch-respecting interleaving of
//!   the stage deltas (reordered within an epoch, regrouped into any
//!   number of sub-batches) finalizes to the same bytes as the batch
//!   pipeline on the final dumps, and after every sub-batch with no
//!   origin walk pending the live snapshot shows what the batch
//!   pipeline reports over the dumps so far (`snapshot_oracle`).
//! - **No pending leaks**: after the final flush, every receiving
//!   context is accounted for — resolved edges plus unresolved edges
//!   equal the receivers, pending edges at flush equal exactly the
//!   references whose synopsis never arrived, and clean streams flush
//!   with zero pending.

mod snapshot_oracle;

use proptest::prelude::*;
use snapshot_oracle::{SnapshotGate, Tally};
use whodunit_collector::{Collector, CollectorConfig, CollectorOutput};
use whodunit_core::delta::{diff_dump, EpochBatch, StageDelta, StreamHeader, StreamStage};
use whodunit_core::pipeline::{analyze, PipelineConfig, PipelineReport};
use whodunit_core::stitch::{
    DumpAtom, DumpCct, DumpContext, DumpCrosstalkPair, DumpCrosstalkWaiter, DumpNode, StageDump,
};
use whodunit_core::synopsis::Synopsis;

/// Where a stage-1 receiving context points its remote chain.
#[derive(Clone, Copy, Debug)]
enum Target {
    /// A stage-0 origin context (index into stage 0's context order).
    Front(usize),
    /// An earlier stage-1 context (multi-hop chain through its mint).
    Chained(usize),
    /// A synopsis that is never minted anywhere.
    Missing,
}

/// The generated stream shape: per epoch, how many fresh origin
/// contexts stage 0 interns, and which target each epoch's stage-1
/// receiver chains to.
#[derive(Clone, Debug)]
struct Shape {
    epochs: usize,
    fronts_per_epoch: usize,
    targets: Vec<Target>,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    // The vendored proptest has no `prop_flat_map`, so draw a max-size
    // raw target pool up front and carve the shape out of it.
    (
        2usize..6,
        1usize..3,
        proptest::collection::vec((0u8..3, 0u32..64), 5..6),
    )
        .prop_map(|(epochs, fronts, raw)| {
            let targets = raw[..epochs]
                .iter()
                .map(|&(kind, v)| match kind {
                    0 => Target::Front(v as usize % (epochs * fronts)),
                    1 => Target::Chained(v as usize % epochs),
                    _ => Target::Missing,
                })
                .collect();
            Shape {
                epochs,
                fronts_per_epoch: fronts,
                targets,
            }
        })
}

fn front_syn(k: usize) -> u64 {
    Synopsis::new(1, k as u32).0
}

fn db_syn(k: usize) -> u64 {
    Synopsis::new(2, k as u32).0
}

fn never_syn(k: usize) -> u64 {
    Synopsis::new(3, k as u32).0
}

/// The cumulative pair of stage dumps as of the end of epoch `e`
/// (inclusive). Monotone in `e` by construction, which is what the
/// delta differ requires.
fn dumps_at(shape: &Shape, e: usize) -> Vec<StageDump> {
    let mut front = StageDump {
        proc: 1,
        stage_name: "front".into(),
        frames: vec!["main".into(), "handler".into()],
        ..StageDump::default()
    };
    let mut db = StageDump {
        proc: 2,
        stage_name: "db".into(),
        frames: vec!["db_main".into(), "query".into()],
        ..StageDump::default()
    };
    for epoch in 0..=e {
        // Stage 0: fresh origin contexts, each minting a synopsis and
        // starting a CCT that keeps growing in every later epoch.
        for j in 0..shape.fronts_per_epoch {
            let k = front.contexts.len();
            front.contexts.push(DumpContext {
                atoms: vec![DumpAtom::Frame((k % 2) as u32)].into(),
            });
            front.synopses.push((front_syn(k), k as u32));
            front.ccts.push(DumpCct {
                ctx: k as u32,
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
                        samples: 1,
                        cycles: 100 + j as u64,
                        calls: 1,
                    },
                ],
            });
        }
        // Every existing front CCT accrues one more sample per epoch.
        for c in &mut front.ccts {
            c.nodes[1].samples += 1;
            c.nodes[1].cycles += 10 + c.ctx as u64;
        }
        // Stage 1: one receiving context per epoch; its chain points at
        // the proptest-chosen target. `Chained` goes through another
        // stage-1 context's own mint (multi-hop walk).
        let i = epoch;
        let chain = match shape.targets[i] {
            Target::Front(k) => {
                let k = k % (front.contexts.len().max(1));
                vec![front_syn(k)]
            }
            Target::Chained(j) if j < i => vec![db_syn(j)],
            Target::Chained(_) => vec![front_syn(0)],
            Target::Missing => vec![never_syn(i)],
        };
        db.contexts.push(DumpContext {
            atoms: vec![DumpAtom::Remote(chain)].into(),
        });
        db.synopses.push((db_syn(i), i as u32));
        db.ccts.push(DumpCct {
            ctx: i as u32,
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
                    samples: 2,
                    cycles: 500 + i as u64,
                    calls: 1,
                },
            ],
        });
        // Crosstalk accrues once two receivers exist; keys stay sorted.
        if i >= 1 {
            if db.crosstalk_pairs.is_empty() {
                db.crosstalk_pairs.push(DumpCrosstalkPair {
                    waiter: 0,
                    holder: 1,
                    count: 0,
                    total_wait: 0,
                });
                db.crosstalk_waiters.push(DumpCrosstalkWaiter {
                    waiter: 0,
                    count: 0,
                    total_wait: 0,
                });
            }
            db.crosstalk_pairs[0].count += 1;
            db.crosstalk_pairs[0].total_wait += 50;
            db.crosstalk_waiters[0].count += 1;
            db.crosstalk_waiters[0].total_wait += 50;
        }
        front.piggyback_bytes += 4;
        front.messages += 1;
        db.piggyback_bytes += 4;
        db.messages += 1;
    }
    vec![front, db]
}

fn header() -> StreamHeader {
    StreamHeader {
        stages: vec![
            StreamStage {
                proc: 1,
                stage_name: "front".into(),
            },
            StreamStage {
                proc: 2,
                stage_name: "db".into(),
            },
        ],
    }
}

/// Derives the canonical epoch-batch stream from the shape, exactly as
/// the engine hook does: snapshot per epoch, diff against the previous
/// snapshot.
fn stream_of(shape: &Shape) -> Vec<EpochBatch> {
    let mut prev: Vec<Option<StageDump>> = vec![None, None];
    let mut seqs = [0u64; 2];
    let mut out = Vec::new();
    for e in 0..shape.epochs {
        let dumps = dumps_at(shape, e);
        let mut deltas = Vec::new();
        for (i, cur) in dumps.iter().enumerate() {
            if let Some(d) = diff_dump(i, seqs[i], prev[i].as_ref(), cur) {
                seqs[i] += 1;
                deltas.push(d);
            }
        }
        prev = dumps.into_iter().map(Some).collect();
        out.push(EpochBatch {
            epoch: e as u64,
            seq: e as u64,
            end: (e as u64 + 1) * 1_000,
            deltas,
        });
    }
    out
}

/// Feeds `batches` one at a time, holding the snapshot after each to
/// the batch pipeline over the same prefix, and finalizes.
fn collect(batches: &[EpochBatch]) -> (CollectorOutput, Tally) {
    let mut c = Collector::new(CollectorConfig::default());
    c.start(&header());
    let mut gate = SnapshotGate::new(&header());
    for b in batches {
        assert!(c.enqueue(b.clone()));
        c.drain();
        gate.after(b, &c, &format!("batch seq={}", b.seq));
    }
    (c.finalize(), gate.tally)
}

fn batch_reference(shape: &Shape) -> PipelineReport {
    analyze(
        dumps_at(shape, shape.epochs - 1),
        PipelineConfig::default(),
    )
}

fn assert_report_eq(a: &PipelineReport, b: &PipelineReport, what: &str) {
    assert_eq!(a.stitched_text(), b.stitched_text(), "stitched: {what}");
    assert_eq!(a.crosstalk_text(), b.crosstalk_text(), "crosstalk: {what}");
    assert_eq!(a.dumps_json, b.dumps_json, "dumps json: {what}");
    assert_eq!(a.dict, b.dict, "dict: {what}");
    assert_eq!(a.fingerprint(), b.fingerprint(), "fingerprint: {what}");
}

/// Regroups a stream into an epoch-respecting interleaving: within
/// each epoch, deltas are rotated by `rot` and split into sub-batches
/// of size `split`, preserving each stage's own delta order (there is
/// at most one delta per stage per epoch).
fn interleave(batches: &[EpochBatch], rot: usize, split: usize) -> Vec<EpochBatch> {
    let mut out = Vec::new();
    let mut seq = 0u64;
    for b in batches {
        let mut deltas: Vec<StageDelta> = b.deltas.clone();
        let n = deltas.len();
        if n > 0 {
            deltas.rotate_left(rot % n);
        }
        let chunk = split.clamp(1, deltas.len().max(1));
        let mut chunks: Vec<Vec<StageDelta>> =
            deltas.chunks(chunk).map(|c| c.to_vec()).collect();
        if chunks.is_empty() {
            chunks.push(Vec::new());
        }
        for dchunk in chunks {
            out.push(EpochBatch {
                epoch: b.epoch,
                seq,
                end: b.end,
                deltas: dchunk,
            });
            seq += 1;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Any epoch-respecting interleaving of the delta stream
    /// finalizes byte-identical to the batch pipeline on the final
    /// dumps — sub-batch grouping and within-epoch order are
    /// presentation-free.
    #[test]
    fn interleavings_finalize_identically(
        input in (shape_strategy(), 0usize..4, 1usize..4)
    ) {
        let (shape, rot, split) = input;
        let reference = batch_reference(&shape);
        let stream = stream_of(&shape);
        let (canonical, _) = collect(&stream);
        assert_report_eq(&reference, &canonical.report, "canonical feed");
        let shuffled = interleave(&stream, rot, split);
        let (out, gated) = collect(&shuffled);
        assert_report_eq(&reference, &out.report, "interleaved feed");
        // Once every delta is in, only a never-minted synopsis keeps a
        // walk pending: without one, the last snapshot is compared.
        if !shape.targets.iter().any(|t| matches!(t, Target::Missing)) {
            prop_assert!(gated.snapshots > 0, "no snapshot compared: {}", gated);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (b) Pending edges never leak: resolved plus unresolved edges
    /// account for every receiver, what is pending at flush is exactly
    /// the never-minted references, and clean streams flush pending-free.
    #[test]
    fn pending_edges_never_leak(shape in shape_strategy()) {
        let stream = stream_of(&shape);
        let (out, _) = collect(&stream);
        let receivers = shape.epochs as u64; // one stage-1 receiver per epoch
        prop_assert_eq!(
            out.report.edges.len() as u64 + out.report.unresolved.len() as u64,
            receivers,
            "edge conservation"
        );
        let missing = shape
            .targets
            .iter()
            .filter(|t| matches!(t, Target::Missing))
            .count() as u64;
        prop_assert_eq!(out.stats.pending_edges_at_flush, missing);
        prop_assert_eq!(out.report.unresolved.len() as u64, missing);
        if missing == 0 {
            prop_assert_eq!(out.stats.pending_edges_at_flush, 0);
            prop_assert_eq!(out.stats.pending_walks_at_flush, 0);
        }
    }
}
