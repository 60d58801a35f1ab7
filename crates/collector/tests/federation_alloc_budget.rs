//! The federation's allocation budget, as an exact-count gate.
//!
//! A 24-replica fleet over 4 leaves and 2 regions runs on links that
//! drop, duplicate and delay (the shape of the benchmark's `fed_lossy`
//! smoke), behind a counting allocator. The allocations from
//! `Federation::new` to the last fed tick are held against the change
//! events fed to the leaves. The run parks and duplicates frames, so
//! every hop the budget covers is on the path: the leaf fold, the
//! regional merge and checkpoint, the park buffer and the root.
//!
//! - 59,514 allocations for 6,600 events (9.017 per event) when a
//!   regional checkpoint deep-copied every parked frame, every
//!   duplicate was decoded before it was dropped, a regional cloned
//!   each decoded delta into its increment and the harness kept one
//!   emitter mirror over the whole header per leaf;
//! - 50,761 (7.691 per event) with parked frames shared, duplicates
//!   dropped on their header, decoded deltas moved into the increment
//!   and one mirror over the whole header;
//! - 44,861 (6.797 per event) with a mirror only for a leaf out of
//!   lockstep, which no leaf of this run ever is, and a §10 collector
//!   at the root;
//! - 43,620 (6.609 per event) with one accumulator per stage at the
//!   root, which applies each frame whole;
//! - 16,796 (2.545 per event) with frame names and contexts shared:
//!   the journal, `commit`, the increment, the checkpoint replay and
//!   every decode clone a reference, where each of them used to copy
//!   every name and context;
//! - 16,748 (2.538 per event) with a child's sketch digests folded in
//!   place instead of built as a sketch each; still 16,748 once the
//!   flow dictionary, the lock table and the CCT child spill became
//!   `FnvHashMap`s, and still 16,748 once every CCT child went into
//!   that map (no CCT is built inside the count);
//! - 15,329 (2.323 per event) with the spool's re-copy and the merge's
//!   `BTreeMap`s gone: a sealed frame spools the encoder's own buffer,
//!   and sorted crosstalk lists merge in place. Reading summary frames
//!   into recycled storage took it to 14,556 (2.205), but bought no
//!   `fed_lossy/pass_s` and cost `peak_rss_mb`, so each frame is still
//!   read into fresh storage;
//! - 14,568 (2.207 per event) with the per-tier sketch digests, which
//!   no receiver read, gone from the leaves, the regionals and the
//!   frames.
//!
//! The bound sits just above the last. `finalize` is outside the
//! count: it is one `analyze` over the root's dumps.
//!
//! One `#[test]` and nothing else in this binary: the counter
//! (`counting_alloc`) is process-wide.

mod counting_alloc;

use whodunit_apps::federation::{
    fan_in_topology, fleet_epochs, leaf_stream, replica_header, FaultLinkPolicy,
};
use whodunit_apps::tpcw::run_tpcw_streaming;
use whodunit_bench::fleet_config;
use whodunit_collector::federation::{Federation, FederationConfig};
use whodunit_core::cost::CPU_HZ;
use whodunit_core::delta::{EpochBatch, RecordingSink};
use whodunit_core::pipeline::{analyze, replicate_fleet, PipelineConfig};
use whodunit_sim::fault::ChannelFaults;
use whodunit_sim::FaultPlan;

/// Allocations per leaf event the federation may make on this run.
const MAX_ALLOCS_PER_EVENT: f64 = 2.4;

#[test]
fn lossy_federation_stays_inside_its_allocation_budget() {
    let (replicas, stagger, leaves_by_region) = (24, 2, [2, 2]);
    let mut sink = RecordingSink::default();
    let report = run_tpcw_streaming(fleet_config(10, 12), CPU_HZ, &mut sink);
    let (hdr, batches) = (sink.header, sink.batches);
    let (topology, ranges) = fan_in_topology(replicas, hdr.stages.len(), &leaves_by_region);
    let total = fleet_epochs(batches.len(), replicas, stagger);
    let streams: Vec<Vec<EpochBatch>> = ranges
        .iter()
        .map(|&(r0, r1)| leaf_stream(&hdr, &batches, r0, r1, stagger, total, CPU_HZ))
        .collect();
    let global = replica_header(&hdr, replicas);
    let plan = FaultPlan::new(0xfed).default_channel_faults(ChannelFaults {
        drop_p: 0.08,
        dup_p: 0.04,
        delay_p: 0.08,
        delay_cycles: 3,
    });
    let policy = Box::new(FaultLinkPolicy::new(plan));

    let before = counting_alloc::allocs();
    let mut fed = Federation::new(&global, &topology, FederationConfig::default(), policy);
    let mut cursors = vec![0usize; streams.len()];
    for ge in 0..total {
        for (leaf, stream) in streams.iter().enumerate() {
            if let Some(b) = stream.get(cursors[leaf]).filter(|b| b.epoch == ge) {
                fed.feed(leaf, b);
                cursors[leaf] += 1;
            }
        }
        fed.tick();
    }
    let allocs = counting_alloc::allocs() - before;

    let out = fed.finalize();
    let s = &out.stats;
    assert_eq!(s.leaf_events_in, 6_600, "not the run the budget was set on");
    assert!(
        s.dup_frames > 0 && s.healed_frames > 0,
        "the links neither duplicated nor reordered: {s:?}"
    );
    assert_eq!(out.coverage_ppm, 1_000_000);
    let flat = analyze(
        replicate_fleet(&report.dumps, replicas),
        PipelineConfig::default(),
    );
    assert_eq!(out.output.report.fingerprint(), flat.fingerprint());
    let per_event = allocs as f64 / s.leaf_events_in as f64;
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "{allocs} allocations for {} leaf events = {per_event:.3} per event, over the \
         {MAX_ALLOCS_PER_EVENT} budget (9.017 with deep-copied parked frames, decoded \
         duplicates, cloned regional merges and a mirror per leaf; 7.691 with one \
         mirror over the whole header; 6.797 with a collector at the root; 6.609 with \
         names and contexts copied at every hop; 2.538 with a re-copied spool and \
         `BTreeMap` merges; 2.323 with tier sketches in every frame; 2.207 since)",
        s.leaf_events_in
    );
}
