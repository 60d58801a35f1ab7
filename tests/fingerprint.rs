//! The published batch fingerprint, pinned.
//!
//! Every change that claims "byte-identical output" rests on this
//! value: the stitched profiles, crosstalk and dumps of the published
//! TPC-W fleet (`PUBLISHED_FLEET`: 24 clients, 40 simulated seconds, 48
//! replicas; the fleet `infer` gates `BENCH_infer.json` on) hashed by
//! `fingerprint()`. A
//! change to the simulator's event order, the profiler or the read side
//! that moves one output byte moves it.

use whodunit_bench::{fleet_config, run_fleet, PUBLISHED_FLEET, PUBLISHED_FP};
use whodunit_core::pipeline::{analyze, PipelineConfig};

#[test]
fn published_fleet_fingerprint_is_pinned() {
    let (clients, duration_s, replicas) = PUBLISHED_FLEET;
    let (_report, fleet) = run_fleet(fleet_config(clients, duration_s), replicas);
    let fp = analyze(fleet, PipelineConfig::default()).fingerprint();
    assert_eq!(fp, PUBLISHED_FP, "fingerprint {fp:016x}");
}
