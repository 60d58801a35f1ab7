//! The read side's allocation budget, as an exact-count gate.
//!
//! One recorded 3-tier stack (12 clients, 12 simulated seconds, the
//! `alloc_budget` run) is replicated into fleets of 8 and 16 replicas,
//! and behind a counting allocator each fleet goes through the three
//! calls every finalize and every verified benchmark pass make:
//! `analyze`, `PipelineReport::fingerprint` and `render_pipeline`.
//!
//! | replicas, stages, text lines       |       8, 24, 464 |      16, 48, 920 |
//! |------------------------------------|-----------------:|-----------------:|
//! | `analyze`                          |        317 → 317 |        565 → 565 |
//! | `fingerprint()`                    |        6,484 → 6 |       12,949 → 6 |
//! | `render_pipeline`                  |       6,490 → 19 |      12,955 → 20 |
//!
//! (writers on `String`s → one writer over a byte sink.)
//!
//! Since the CCT's child spill became an `FnvHashMap`, `analyze` makes
//! 333 at 8 replicas and 597 at 16: two more per replica. std's table
//! first allocates room for 3 entries and then doubles, where the
//! hand-written table it replaced started at 16 slots, so a spill that
//! fitted one allocation now takes the doublings up to it.
//!
//! Since a CCT node holds no child links (every child is in its tree's
//! one child map, and the sorted walk groups children by parent from
//! the parent links), `analyze` makes 357 at 8 replicas and 645 at 16:
//! each profile tree allocates its child map, where a tree whose nodes
//! had at most two children each used to need none. `fingerprint()`
//! makes 8 at both widths and `render_pipeline` 21 / 22: the walk
//! keeps a second buffer (where each parent's children start), and its
//! children list now spans the whole tree instead of one node's.
//!
//! Before, every label was a fresh `String` (plus one per atom and
//! frame name in it), every CCT node's child list was a fresh `Vec`,
//! and the fingerprint rendered both texts only to hash them. Now the
//! fingerprint streams the texts into the hasher and the renderer
//! writes into its one output buffer, so:
//!
//! - `fingerprint()` allocates only the buffers of one tree walk, the
//!   same count at 8 replicas as at 16: it does not grow with the
//!   lines it hashes;
//! - `render_pipeline` allocates only those plus its output buffer's
//!   doublings;
//! - `analyze` holds its count: its gain is time (the dump JSON is one
//!   buffer either way), and the pin keeps a per-name or per-stage
//!   temporary from coming back into `global_frames` or `serialize`;
//! - the label writers allocate nothing at all, per label or in total.
//!
//! The counts are pinned exactly, as `FederationStats` is: a change
//! that moves one re-states it here and says why.
//!
//! One `#[test]` and nothing else in this binary: the counter
//! (`counting_alloc`) is process-wide.

#[path = "../crates/collector/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use whodunit::core::hash::Fnv64;
use whodunit::core::pipeline::{analyze, replicate_fleet, PipelineConfig};
use whodunit::report::render::render_pipeline;
use whodunit_bench::run_fleet;

/// Allocations `f` makes, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = counting_alloc::allocs();
    let out = f();
    (out, counting_alloc::allocs() - before)
}

/// `(replicas, analyze, fingerprint, render_pipeline)` allocations.
const PINNED: [(usize, u64, u64, u64); 2] = [(8, 357, 8, 21), (16, 645, 8, 22)];

#[test]
fn read_side_stays_inside_its_allocation_budget() {
    let (_, dumps) = run_fleet(whodunit_bench::fleet_config(12, 12), 1);
    let mut fp_counts = Vec::new();
    for (replicas, want_analyze, want_fp, want_render) in PINNED {
        let fleet = replicate_fleet(&dumps, replicas);
        let (rep, analyze_allocs) = counted(|| analyze(fleet, PipelineConfig::default()));
        let (fp, fp_allocs) = counted(|| rep.fingerprint());
        fp_counts.push(fp_allocs);
        let (text, render_allocs) = counted(|| render_pipeline(&rep));
        let lines = text.lines().count();
        println!(
            "{replicas} replicas, {} stages, {lines} lines: analyze {analyze_allocs}, \
             fingerprint {fp_allocs}, render_pipeline {render_allocs}",
            rep.stages.len()
        );

        // The labels, every origin, edge and stage context of the
        // report, into a buffer big enough for any one of them and a
        // hasher: nothing allocates.
        let mut label = String::with_capacity(4 << 10);
        let mut h = Fnv64::new();
        let ((), label_allocs) = counted(|| {
            let origins = rep.profiles.iter().map(|p| p.origin);
            let edges = rep.edges.iter().map(|e| (e.from_stage, e.from_ctx));
            for (stage, ctx) in origins.chain(edges) {
                label.clear();
                rep.origin_label_into(&mut label, stage, ctx);
                rep.origin_label_into(&mut h, stage, ctx);
            }
            for d in &rep.stages {
                for ctx in 0..d.contexts.len() as u32 + 1 {
                    label.clear();
                    d.ctx_string_into(&mut label, ctx);
                    d.ctx_string_into(&mut h, ctx);
                }
            }
            rep.crosstalk_text_into(&mut h);
        });
        assert_eq!(label_allocs, 0, "the label writers allocated");
        assert_eq!(
            fp,
            whodunit::core::fnv1a(
                [
                    rep.stitched_text(),
                    rep.crosstalk_text(),
                    rep.dumps_json.clone()
                ]
                .concat()
                .as_bytes()
            ),
            "the streamed fingerprint is not the hash of the texts"
        );
        assert_eq!(
            (analyze_allocs, fp_allocs, render_allocs),
            (want_analyze, want_fp, want_render),
            "allocations of (analyze, fingerprint, render_pipeline) at {replicas} replicas"
        );
    }
    // What the fingerprint's pin stands for: its count does not grow
    // with the fleet it hashes.
    assert_eq!(
        fp_counts[0], fp_counts[1],
        "fingerprint() allocations grew with the fleet"
    );
}
