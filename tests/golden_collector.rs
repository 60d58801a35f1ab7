//! Golden-file test for the live-query snapshot rendering of the
//! streaming collector: one fixed TPC-W run's delta stream, snapshotted
//! mid-run and at the final epoch, rendered with
//! `report::render_live_snapshot` and compared byte-for-byte against a
//! checked-in golden under `tests/golden/`.
//!
//! Both the simulation and the collector are fully deterministic, so
//! any byte difference is a real behavior or format change.
//!
//! # Updating the golden
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_collector
//! ```
//!
//! then review the diff of `tests/golden/collector_live.txt` like any
//! other code change and commit it alongside the change that caused it.

use std::path::PathBuf;
use whodunit::apps::tpcw::{run_tpcw_streaming, TpcwConfig};
use whodunit::collector::{Collector, CollectorConfig};
use whodunit::core::cost::CPU_HZ;
use whodunit::core::delta::RecordingSink;
use whodunit::report::render_live_snapshot;

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
            "missing golden {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden_collector",
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
fn golden_live_snapshots() {
    let cfg = TpcwConfig {
        clients: 32,
        duration: 40 * CPU_HZ,
        warmup: 5 * CPU_HZ,
        seed: 1,
        ..TpcwConfig::default()
    };
    let mut sink = RecordingSink::default();
    run_tpcw_streaming(cfg, CPU_HZ, &mut sink);
    assert!(
        sink.batches.len() > 4,
        "stream too short to snapshot mid-run"
    );

    let mut c = Collector::new(CollectorConfig::default());
    c.start(&sink.header);
    let mid = sink.batches.len() / 2;
    let mut doc = String::new();
    for (i, b) in sink.batches.iter().enumerate() {
        assert!(c.enqueue(b.clone()));
        c.drain();
        if i + 1 == mid {
            doc.push_str(&render_live_snapshot(&c.snapshot()));
            doc.push('\n');
        }
    }
    doc.push_str(&render_live_snapshot(&c.snapshot()));
    check_golden("collector_live.txt", &doc);
}
