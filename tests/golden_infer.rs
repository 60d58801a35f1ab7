//! Golden-file test for the black-box inference report: a fixed
//! TPC-W run and the three zoo topologies, each stitched under the
//! full visibility ladder, rendered with
//! `report::infer::render_infer` and compared byte-for-byte against
//! `tests/golden/infer_report.txt`.
//!
//! Simulation, stitching, and the fixed-point rate formatting are all
//! integer-deterministic, so any byte difference is a real behavior
//! or format change.
//!
//! # Updating the golden
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_infer
//! ```
//!
//! then review the diff of `tests/golden/infer_report.txt` like any
//! other code change.

use std::path::PathBuf;
use whodunit::apps::tpcw::{run_tpcw, TpcwConfig};
use whodunit::apps::zoo::{run_zoo, Topology, ZooConfig};
use whodunit::core::blackbox::{CommLog, TierVisibility};
use whodunit::core::cost::CPU_HZ;
use whodunit::infer::{
    evidence, hybrid_stitch, infer_stitch, score_confident_pairs, score_origins, score_pairs,
    PairingConfig,
};
use whodunit::report::infer::{render_infer, InferRow};
use whodunit::sim::fault::ChannelFaults;
use whodunit::sim::ScenarioFaults;

/// Scores one (scenario, visibility) cell into a report row.
fn row(scenario: &str, vis: &str, log: &CommLog) -> InferRow {
    let pc = PairingConfig::default();
    let procs = log.events.iter().map(|e| e.proc).max().unwrap_or(0) as usize + 1;
    let stitch = match vis {
        "blackbox" => infer_stitch(&log.events, &pc),
        "hybrid" => {
            let mut v = vec![TierVisibility::Cooperating; procs];
            v[1.min(procs - 1)] = TierVisibility::Opaque;
            hybrid_stitch(log, &v, &pc)
        }
        _ => hybrid_stitch(log, &vec![TierVisibility::Cooperating; procs], &pc),
    };
    // The golden pins presentation; the oracle still guards the data.
    assert!(
        whodunit::core::oracle::check_inference(&evidence(&stitch, log)).is_empty(),
        "{scenario}/{vis}: oracle violation"
    );
    InferRow {
        scenario: scenario.to_owned(),
        vis: vis.to_owned(),
        recvs: log.recv_count() as u64,
        pairs: score_pairs(&stitch, log),
        origins: score_origins(&stitch, log),
        confident: score_confident_pairs(&stitch, log),
    }
}

/// The canonical golden document: TPC-W clean + faulty, plus every
/// zoo topology, each under the three visibility configurations.
fn canonical_doc() -> String {
    let mut rows = Vec::new();

    let tpcw_cfg = |faults| TpcwConfig {
        clients: 8,
        duration: 12 * CPU_HZ,
        warmup: 3 * CPU_HZ,
        seed: 1,
        comm_log: true,
        faults,
        step_budget: Some(2_000_000),
        ..TpcwConfig::default()
    };
    let storm = ScenarioFaults {
        seed: 0xfeed,
        backbone: ChannelFaults {
            drop_p: 0.03,
            dup_p: 0.01,
            delay_p: 0.05,
            delay_cycles: CPU_HZ / 100,
        },
        ..Default::default()
    };
    for (label, faults) in [("tpcw/clean", None), ("tpcw/faulty", Some(storm))] {
        let log = run_tpcw(tpcw_cfg(faults)).comm.expect("comm log on");
        for vis in ["blackbox", "hybrid", "full"] {
            rows.push(row(label, vis, &log));
        }
    }

    for t in Topology::ALL {
        let cfg = ZooConfig {
            topology: t,
            seed: 3,
            clients: 8,
            duration: 12 * CPU_HZ,
            warmup: 3 * CPU_HZ,
            comm_log: true,
            ..ZooConfig::default()
        };
        let log = run_zoo(&cfg).comm.expect("comm log on");
        let label = format!("{}/clean", t.name());
        for vis in ["blackbox", "hybrid", "full"] {
            rows.push(row(&label, vis, &log));
        }
    }

    render_infer(&rows)
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/infer_report.txt")
}

#[test]
fn golden_infer_report() {
    let got = canonical_doc();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden_infer",
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
