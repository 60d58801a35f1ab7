//! Property tests for the federation's summary-delta merge algebra —
//! the laws the aggregation tiers lean on for byte-identity:
//!
//! - **Grouping invariance**: splitting a stage's delta stream into
//!   any consecutive groups, merging each group into one summary
//!   delta, and applying the groups yields the same accumulated dump
//!   as applying every delta individually. This is exactly what a
//!   regional does when it compacts child frames between flushes.
//! - **Associativity**: `merge(merge(d1,d2),d3) == merge(d1,merge(d2,d3))`
//!   as values, so leaf-side and regional-side compaction commute.
//! - **Mass conservation**: `delta_mass` is additive under merge — the
//!   ledger unit the root's coverage accounting is built on.
//!
//! The generated streams carry growing CCTs, late-arriving contexts,
//! crosstalk pair/waiter partials, and piggyback counters, so every
//! merged field is exercised.

use proptest::prelude::*;
use whodunit_core::delta::{diff_dump, StageAccumulator, StageDelta, StreamStage};
use whodunit_core::stitch::{
    DumpAtom, DumpCct, DumpContext, DumpCrosstalkPair, DumpCrosstalkWaiter, DumpNode, StageDump,
};
use whodunit_core::summary::{delta_mass, empty_delta, merge_stage_delta, seal_delta};

/// Generated stream shape: epoch count, context arrivals, and a raw
/// growth pool the cycle increments are carved from.
#[derive(Clone, Debug)]
struct Shape {
    epochs: usize,
    ctxs: usize,
    growth: Vec<u64>,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (
        3usize..8,
        1usize..4,
        proptest::collection::vec(1u64..5_000, 8..9),
    )
        .prop_map(|(epochs, ctxs, growth)| Shape {
            epochs,
            ctxs,
            growth,
        })
}

/// Cumulative dump as of the end of epoch `e` (inclusive): contexts
/// arrive one per epoch until `ctxs` exist, every CCT leaf keeps
/// growing, and crosstalk partials accrue once two contexts exist.
fn dump_at(shape: &Shape, e: usize) -> StageDump {
    let mut d = StageDump {
        proc: 7,
        stage_name: "svc".into(),
        frames: vec!["main".into(), "work".into()],
        ..StageDump::default()
    };
    for epoch in 0..=e {
        if d.contexts.len() < shape.ctxs {
            let k = d.contexts.len();
            d.contexts.push(DumpContext {
                atoms: vec![DumpAtom::Frame((k % 2) as u32)].into(),
            });
            d.ccts.push(DumpCct {
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
                        cycles: shape.growth[k % shape.growth.len()],
                        calls: 1,
                    },
                ],
            });
        }
        for c in &mut d.ccts {
            c.nodes[1].samples += 1;
            c.nodes[1].cycles += shape.growth[(epoch + c.ctx as usize) % shape.growth.len()];
        }
        if d.contexts.len() >= 2 {
            if d.crosstalk_pairs.is_empty() {
                d.crosstalk_pairs.push(DumpCrosstalkPair {
                    waiter: 0,
                    holder: 1,
                    count: 0,
                    total_wait: 0,
                });
                d.crosstalk_waiters.push(DumpCrosstalkWaiter {
                    waiter: 0,
                    count: 0,
                    total_wait: 0,
                });
            }
            d.crosstalk_pairs[0].count += 1;
            d.crosstalk_pairs[0].total_wait += shape.growth[epoch % shape.growth.len()];
            d.crosstalk_waiters[0].count += 1;
            d.crosstalk_waiters[0].total_wait += shape.growth[epoch % shape.growth.len()];
        }
        d.piggyback_bytes += 4;
        d.messages += 1;
    }
    d
}

/// The canonical per-epoch delta stream of the shape.
fn deltas_of(shape: &Shape) -> Vec<StageDelta> {
    let mut prev: Option<StageDump> = None;
    let mut out = Vec::new();
    for e in 0..shape.epochs {
        let cur = dump_at(shape, e);
        if let Some(d) = diff_dump(0, out.len() as u64, prev.as_ref(), &cur) {
            out.push(d);
        }
        prev = Some(cur);
    }
    out
}

fn stage() -> StreamStage {
    StreamStage {
        proc: 7,
        stage_name: "svc".into(),
    }
}

/// Applies a delta sequence to a fresh accumulator and dumps it.
fn apply_all(deltas: &[StageDelta]) -> StageDump {
    let mut acc = StageAccumulator::new(&stage());
    for d in deltas {
        acc.apply(d).expect("canonical stream applies");
    }
    acc.to_dump()
}

/// Carves `n` items into consecutive non-empty groups at the positions
/// selected by `cuts`.
fn group_bounds(n: usize, cuts: &[bool]) -> Vec<(usize, usize)> {
    let mut bounds = Vec::new();
    let mut start = 0;
    for i in 1..n {
        if cuts[(i - 1) % cuts.len()] {
            bounds.push((start, i));
            start = i;
        }
    }
    bounds.push((start, n));
    bounds
}

/// Merges a consecutive delta run into one sealed summary delta.
fn merge_run(deltas: &[StageDelta], seq: u64) -> StageDelta {
    let mut acc = empty_delta(0);
    for d in deltas {
        merge_stage_delta(&mut acc, d).expect("consecutive deltas merge");
    }
    seal_delta(acc, seq)
}

proptest! {
    /// Any consecutive grouping of the stream, compacted group-by-group
    /// through the summary merge, accumulates to the same bytes as the
    /// raw stream — and conserves mass group-by-group.
    #[test]
    fn merged_groups_apply_identically(
        input in (shape_strategy(), proptest::collection::vec(any::<bool>(), 8..9))
    ) {
        let (shape, cuts) = input;
        let deltas = deltas_of(&shape);
        prop_assert!(!deltas.is_empty());
        let reference = apply_all(&deltas);

        let mut merged = Vec::new();
        for (gi, &(a, b)) in group_bounds(deltas.len(), &cuts).iter().enumerate() {
            let run = &deltas[a..b];
            let m = merge_run(run, gi as u64);
            let run_mass: u64 = run.iter().map(delta_mass).sum();
            prop_assert_eq!(delta_mass(&m), run_mass, "merge changed the mass ledger");
            let run_events: u64 = run.iter().map(|d| d.events()).sum();
            prop_assert!(m.events() <= run_events, "merge inflated the stream");
            merged.push(m);
        }
        prop_assert_eq!(apply_all(&merged), reference, "grouped apply diverged");
    }

    /// The merge is associative as a value: folding left and folding
    /// right produce the same summary delta (checksums sealed equally).
    #[test]
    fn merge_is_associative_over_the_stream(shape in shape_strategy()) {
        let deltas = deltas_of(&shape);
        prop_assert!(deltas.len() >= 3);
        for w in deltas.windows(3) {
            // left: (d0 · d1) · d2
            let mut left = empty_delta(0);
            merge_stage_delta(&mut left, &w[0]).unwrap();
            merge_stage_delta(&mut left, &w[1]).unwrap();
            merge_stage_delta(&mut left, &w[2]).unwrap();
            // right: d0 · (d1 · d2)
            let mut inner = empty_delta(0);
            merge_stage_delta(&mut inner, &w[1]).unwrap();
            merge_stage_delta(&mut inner, &w[2]).unwrap();
            let mut right = empty_delta(0);
            merge_stage_delta(&mut right, &w[0]).unwrap();
            merge_stage_delta(&mut right, &inner).unwrap();
            prop_assert_eq!(
                seal_delta(left, 0),
                seal_delta(right, 0),
                "associativity broke"
            );
        }
    }
}
