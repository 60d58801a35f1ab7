//! Golden-file test for the rendered incident report: one fixed
//! faultstorm scenario (mysql slowdown under the TPC-W matrix config)
//! is captured by the sentinel pipeline and rendered with
//! `report::render_incident` twice — once mid-violation (detection
//! only, capture still in flight) and once post-capture (shrink and
//! replay verification attached) — and compared byte-for-byte against
//! a checked-in golden under `tests/golden/`.
//!
//! Simulation, collector, sentinel, shrinking, and replay are all
//! deterministic, so any byte difference is a real behavior or format
//! change.
//!
//! # Updating the golden
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_sentinel
//! ```
//!
//! then review the diff of `tests/golden/sentinel_incident.txt` like
//! any other code change and commit it alongside the change that
//! caused it.

use std::path::PathBuf;
use whodunit::apps::chaos::Assembly;
use whodunit::apps::sentinel::{calibrate_budget, capture_incident};
use whodunit::core::cost::CPU_HZ;
use whodunit::core::repro::{ChaosRepro, FaultEntry};
use whodunit::report::render_incident;

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
            "missing golden {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden_sentinel",
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

fn matrix_repro(seed: u64) -> ChaosRepro {
    let mut r = ChaosRepro {
        seed,
        policy: "fifo".into(),
        workload: Assembly::Tpcw.workload(),
        faults: Vec::new(),
        violation: None,
        window: None,
    };
    r.set_knob("clients", 12);
    r.set_knob("duration", 25 * CPU_HZ);
    r.set_knob("warmup", 5 * CPU_HZ);
    r
}

#[test]
fn incident_report_matches_golden() {
    let budget = calibrate_budget(&matrix_repro(1), CPU_HZ, 3, 2);
    let mut storm = matrix_repro(1);
    let onset = 10 * CPU_HZ;
    storm.faults = vec![FaultEntry::Slowdown {
        machine: "mysql".into(),
        from: onset,
        until: 25 * CPU_HZ,
        factor: 8,
    }];
    let inc = capture_incident(&storm, &budget, CPU_HZ).expect("faultstorm must trip");
    assert!(inc.oracle.is_empty(), "capture oracle: {:?}", inc.oracle);

    // Mid-violation view: the trip is known but shrink and replay have
    // not completed yet — exactly the card a live dashboard renders
    // while the capture pipeline is still running.
    let mut mid = inc.card.clone();
    mid.shrink = None;
    mid.replay = None;

    // Post-capture view: the full card, with detection latency against
    // the fault plan's onset epoch.
    let mut post = inc.card.clone();
    post.onset_epoch = Some(onset / CPU_HZ);

    let mut got = String::new();
    got.push_str("### mid-violation ###\n");
    got.push_str(&render_incident(&mid));
    got.push_str("\n### post-capture ###\n");
    got.push_str(&render_incident(&post));
    check_golden("sentinel_incident.txt", &got);
}
