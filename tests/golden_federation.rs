//! Golden-file test for the federation topology rendering: one fixed
//! TPC-W run's delta stream, split across a two-region federation with
//! a planted leaf crash, viewed mid-run and after finalize with
//! `report::render_fed_topology` and compared byte-for-byte against a
//! checked-in golden under `tests/golden/`.
//!
//! Everything in the chain — the simulation, the replica splitter, the
//! federation's virtual link fabric, the renderer — is deterministic,
//! so any byte difference is a real behavior or format change.
//!
//! # Updating the golden
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_federation
//! ```
//!
//! then review the diff of `tests/golden/federation_topology.txt` like
//! any other code change and commit it alongside the change that
//! caused it.

use std::path::PathBuf;
use whodunit::apps::federation::{fan_in_topology, fleet_epochs, leaf_stream, replica_header};
use whodunit::apps::tpcw::run_tpcw_streaming;
use whodunit::collector::federation::{CleanLinks, FedNodeId, Federation, FederationConfig};
use whodunit::core::cost::CPU_HZ;
use whodunit::core::delta::RecordingSink;
use whodunit::report::render_fed_topology;
use whodunit_bench::matrix::federation_cfg;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden_federation",
            path.display()
        )
    });
    if got != want {
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            if g != w {
                panic!(
                    "golden mismatch {} at line {}:\n  got:  {g}\n  want: {w}\n\
                     (UPDATE_GOLDEN=1 regenerates after an intentional change)",
                    path.display(),
                    i + 1
                );
            }
        }
        panic!(
            "golden mismatch {}: lengths differ (got {} lines, want {})",
            path.display(),
            got.lines().count(),
            want.lines().count()
        );
    }
}

#[test]
fn golden_federation_topology() {
    let mut sink = RecordingSink::default();
    run_tpcw_streaming(federation_cfg(1), CPU_HZ, &mut sink);

    // Six replicas across two regions of two leaves each.
    let replicas = 6;
    let stagger = 2;
    let g = sink.header.stages.len();
    let global = replica_header(&sink.header, replicas);
    let (topo, ranges) = fan_in_topology(replicas, g, &[2, 2]);
    let total = fleet_epochs(sink.batches.len(), replicas, stagger);
    let streams: Vec<_> = ranges
        .iter()
        .map(|&(r0, r1)| leaf_stream(&sink.header, &sink.batches, r0, r1, stagger, total, CPU_HZ))
        .collect();

    let fed_cfg = FederationConfig {
        flush_every: 2,
        checkpoint_every: 4,
        ..FederationConfig::default()
    };
    let mut fed = Federation::new(&global, &topo, fed_cfg, Box::new(CleanLinks));
    // A mid-run leaf crash with recovery, so the view shows liveness
    // flip to DOWN and the final view shows the recovery counter.
    fed.crash(FedNodeId::Leaf(1), 9, Some(15));

    let mid = total / 2;
    let mut cursors = vec![0usize; streams.len()];
    let mut doc = String::new();
    for ge in 0..total {
        for (leaf, stream) in streams.iter().enumerate() {
            let cur = cursors[leaf];
            if cur < stream.len() && stream[cur].epoch == ge {
                fed.feed(leaf, &stream[cur]);
                cursors[leaf] = cur + 1;
            }
        }
        fed.tick();
        if ge + 1 == 11 {
            doc.push_str("-- during the leaf 1 outage --\n");
            doc.push_str(&render_fed_topology(&fed.topology_view()));
            doc.push('\n');
        }
        if ge + 1 == mid {
            doc.push_str("-- mid-run --\n");
            doc.push_str(&render_fed_topology(&fed.topology_view()));
            doc.push('\n');
        }
    }
    let out = fed.finalize();
    assert_eq!(out.coverage_ppm, 1_000_000, "recovery must lose no mass");
    doc.push_str("-- final --\n");
    doc.push_str(&render_fed_topology(&out.topology));
    check_golden("federation_topology.txt", &doc);
}
