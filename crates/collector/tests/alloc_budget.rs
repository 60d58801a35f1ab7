//! The wire ingest path's allocation budget, as an exact-count gate.
//!
//! `streaming_diff`'s staggered fleet (12 replicas of one recorded
//! stack, 2 epochs apart) goes through
//! [`Collector::enqueue_wire`] + [`Collector::drain`] behind a counting
//! allocator, and the allocations between the first offer and the last
//! drain are held against the events the stream carries.
//!
//! - 11,818 allocations for 3,372 events (3.505 per event) when the
//!   decoder built up to 12 temporary column lists per delta and every
//!   batch was freed after its drain;
//! - 6,527 (1.936 per event) with the one delta-section reader that
//!   fills the target lists directly and a [`BatchDecoder`] that reads
//!   into the storage of batches already drained;
//! - 6,330 (1.877 per event) by the time evicted origins kept their
//!   tree (this window-4 leg evicts little);
//! - 3,019 (0.895 per event) with frame names and contexts shared: the
//!   decoder makes one copy of a name per frame, not one per delta
//!   naming it, and the accumulator's `commit` and the collector's
//!   frame table clone a reference where they copied;
//! - 3,000 (0.890 per event) once the collector stopped evicting: no
//!   idle list, resident list or rank-index nodes.
//!
//! The bound sits just above the last, so a per-delta temporary or a
//! per-delta copy of a name that comes back trips it without a
//! stopwatch. What is left is the content that outlives the batch (one
//! copy of each name and context atom list, the accumulators' and the
//! stitcher's own growth), not the decoder.
//!
//! A second phase sends the same frames through the shape of the
//! benchmark's `ingest_churn`: a 4-deep queue polled on every third
//! offer and a `snapshot()` per frame. Until the collector stopped
//! evicting, this leg also ran a 1-epoch window (393 evictions and 357
//! revivals for the 3,372 events):
//!
//! - 11,069 allocations (3.283 per event) when every eviction copied
//!   the origin's tree into a flat node list and every revival rebuilt
//!   it child by child;
//! - 8,492 (2.518 per event) once both only flipped a flag on the
//!   one aggregate (full size, `ingest_churn` seed 1: 2.151 → 0.879),
//!   and 8,327 (2.469) by the time the first leg read 1.877;
//! - 5,016 (1.488 per event) with names and contexts shared;
//! - 4,911 (1.456 per event) with no eviction: a snapshot ranks every
//!   origin by its cached total into a `TOP_K`-sized buffer, where it
//!   ranked the resident set plus the head of a rank index that every
//!   eviction and revival updated.
//!
//! One `#[test]` and nothing else in this binary: the counter
//! (`counting_alloc`) is process-wide.
//!
//! [`BatchDecoder`]: whodunit_core::wire::BatchDecoder

mod counting_alloc;

use whodunit_apps::tpcw::run_tpcw_streaming;
use whodunit_bench::{fleet_config, fleet_stream};
use whodunit_collector::{Collector, CollectorConfig};
use whodunit_core::cost::CPU_HZ;
use whodunit_core::delta::RecordingSink;
use whodunit_core::wire::{encode_batch, encode_header};

/// Allocations per event the wire ingest path may make on this stream.
const MAX_ALLOCS_PER_EVENT: f64 = 1.0;

/// The same, for the churn leg (backpressure and a snapshot per frame
/// on top of the decode).
const MAX_CHURN_ALLOCS_PER_EVENT: f64 = 1.5;

#[test]
fn wire_ingest_stays_inside_its_allocation_budget() {
    let (replicas, stagger) = (12, 2);
    let mut sink = RecordingSink::default();
    run_tpcw_streaming(fleet_config(12, 12), CPU_HZ, &mut sink);
    let (hdr, stream) = fleet_stream(&sink.header, &sink.batches, replicas, stagger);
    let events: u64 = stream.iter().map(|b| b.events()).sum();
    assert_eq!(events, 3_372, "not the stream the budget was set on");
    let frames: Vec<Vec<u8>> = stream.iter().map(encode_batch).collect();
    let header = encode_header(&hdr);
    let collector = |max_queue| {
        let mut c = Collector::new(CollectorConfig {
            max_queue,
            ..CollectorConfig::default()
        });
        c.start_wire(&header).expect("header decodes");
        c
    };

    let mut c = collector(0);
    let before = counting_alloc::allocs();
    for f in &frames {
        assert_eq!(c.enqueue_wire(f), Ok(true), "clean frame refused");
        c.drain();
    }
    let allocs = counting_alloc::allocs() - before;

    assert_eq!(c.stats().events, events);
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "{allocs} allocations for {events} events = {per_event:.3} per event, \
         over the {MAX_ALLOCS_PER_EVENT} budget (3.505 before the recycling decoder, 1.877 \
         while every delta copied its names and contexts, 0.895 while the collector still \
         evicted, 0.890 since)"
    );

    // Second phase, same thread: a slow consumer behind a 4-deep queue,
    // read after every offer.
    let mut c = collector(4);
    let before = counting_alloc::allocs();
    for (i, f) in frames.iter().enumerate() {
        while c.enqueue_wire(f) == Ok(false) {
            c.poll();
        }
        if i % 3 == 0 {
            c.poll();
        }
        std::hint::black_box(c.snapshot());
    }
    c.drain();
    let allocs = counting_alloc::allocs() - before;

    let st = c.stats();
    assert_eq!(st.events, events);
    assert!(st.throttled > 0, "the churn leg did not churn: {st:?}");
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= MAX_CHURN_ALLOCS_PER_EVENT,
        "{allocs} allocations for {events} events = {per_event:.3} per event, over the \
         {MAX_CHURN_ALLOCS_PER_EVENT} churn budget (3.283 when eviction copied the tree and \
         revival rebuilt it, 2.469 while every delta copied its names and contexts, 1.488 \
         while the collector still evicted, 1.456 since)"
    );
}
