//! End-to-end inference scenarios: the TPC-W inference slice and the
//! topology zoo, stitched under the visibility ladder and scored
//! against simulator ground truth.
//!
//! The `infer` bench bin sweeps the full matrix with hard F1 gates;
//! this suite holds the same invariants on shortened runs so `cargo
//! test` exercises the whole pipeline — simulator → comm log →
//! stitch → oracle — on every change:
//!
//! - clean logs are recovered at F1 ≥ 0.95 even fully black-box;
//! - the certain (ambiguity-1) subset keeps exact precision 1.0, with
//!   or without fault storms;
//! - more visibility never hurts: hybrid origins F1 ≥ black-box, and
//!   full cooperation reproduces the truth maps exactly;
//! - the accounting oracle passes on every row;
//! - the comm log is observation-only: enabling it leaves the profile
//!   dumps bit-identical.

use whodunit_apps::tpcw::{run_tpcw, TpcwConfig};
use whodunit_apps::zoo::{run_zoo, Topology, ZooConfig};
use whodunit_bench::matrix;
use whodunit_core::blackbox::{CommLog, TierVisibility};
use whodunit_core::cost::CPU_HZ;
use whodunit_core::oracle::check_inference;
use whodunit_infer::{
    evidence, hybrid_stitch, infer_stitch, score_confident_pairs, score_origins, score_pairs,
    PairingConfig,
};

/// The bench bin's clean-scenario F1 floor, ppm.
const GATE_F1_PPM: u64 = 950_000;

/// Shrinks a slice config to test size (the bench smoke dimensions).
fn shrink(mut cfg: TpcwConfig) -> TpcwConfig {
    cfg.clients = 8;
    cfg.duration = 12 * CPU_HZ;
    cfg.warmup = 3 * CPU_HZ;
    cfg
}

/// Black-box + hybrid + full scores for one log; asserts the shared
/// invariants (oracle clean, certain precision exact, full == truth)
/// and returns (blackbox origins F1, hybrid origins F1).
fn visibility_ladder(label: &str, log: &CommLog) -> (u64, u64) {
    let pc = PairingConfig::default();
    let procs = log.events.iter().map(|e| e.proc).max().unwrap_or(0) as usize + 1;

    let bb = infer_stitch(&log.events, &pc);
    assert!(
        check_inference(&evidence(&bb, log)).is_empty(),
        "{label}: blackbox oracle violation"
    );
    assert_eq!(
        score_confident_pairs(&bb, log).reported_precision_ppm,
        1_000_000,
        "{label}: certain subset lost exact precision"
    );

    let mut vis = vec![TierVisibility::Cooperating; procs];
    vis[1.min(procs - 1)] = TierVisibility::Opaque;
    let hy = hybrid_stitch(log, &vis, &pc);
    assert!(
        check_inference(&evidence(&hy, log)).is_empty(),
        "{label}: hybrid oracle violation"
    );

    let full = hybrid_stitch(log, &vec![TierVisibility::Cooperating; procs], &pc);
    assert_eq!(
        full.pair_map(),
        log.truth_pairs(),
        "{label}: full visibility diverged from truth pairs"
    );
    assert_eq!(
        full.origin_map(),
        log.truth_origins(),
        "{label}: full visibility diverged from truth origins"
    );

    (
        score_origins(&bb, log).reported_f1_ppm,
        score_origins(&hy, log).reported_f1_ppm,
    )
}

#[test]
fn tpcw_clean_slice_recovers_blackbox() {
    let (label, cfg) = matrix::inference_slice()
        .into_iter()
        .find(|(l, _)| l == "tpcw/clean/s1")
        .expect("slice carries the clean s1 scenario");
    let log = run_tpcw(shrink(cfg))
        .tail
        .comm
        .expect("inference slice records comm logs");
    let pc = PairingConfig::default();
    let s = infer_stitch(&log.events, &pc);
    assert!(
        score_pairs(&s, &log).reported_f1_ppm >= GATE_F1_PPM,
        "{label}: clean pairs F1 under gate"
    );
    assert!(
        score_origins(&s, &log).reported_f1_ppm >= GATE_F1_PPM,
        "{label}: clean origins F1 under gate"
    );
    visibility_ladder(&label, &log);
}

#[test]
fn tpcw_faulty_slice_degrades_soundly() {
    let (label, cfg) = matrix::inference_slice()
        .into_iter()
        .find(|(l, _)| l == "tpcw/faulty/s1")
        .expect("slice carries the faulty s1 scenario");
    let log = run_tpcw(shrink(cfg))
        .tail
        .comm
        .expect("inference slice records comm logs");
    // No accuracy floor under a fault storm — only soundness: the
    // oracle stays clean, certainty stays exact, and cooperation can
    // only help.
    let (bb_f1, hy_f1) = visibility_ladder(&label, &log);
    assert!(
        hy_f1 >= bb_f1,
        "{label}: adding a cooperating tier reduced origins F1 ({hy_f1} < {bb_f1})"
    );
}

#[test]
fn zoo_topologies_hold_the_ladder() {
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
        let report = run_zoo(&cfg);
        let log = report.tail.comm.expect("zoo records comm logs when asked");
        let pc = PairingConfig::default();
        let s = infer_stitch(&log.events, &pc);
        assert!(
            score_pairs(&s, &log).reported_f1_ppm >= GATE_F1_PPM,
            "{}: clean pairs F1 under gate",
            t.name()
        );
        assert!(
            score_origins(&s, &log).reported_f1_ppm >= GATE_F1_PPM,
            "{}: clean origins F1 under gate",
            t.name()
        );
        let (bb_f1, hy_f1) = visibility_ladder(t.name(), &log);
        assert!(
            hy_f1 >= bb_f1,
            "{}: adding a cooperating tier reduced origins F1",
            t.name()
        );
    }
}

#[test]
fn comm_log_is_observation_only() {
    let (_, cfg) = matrix::inference_slice()
        .into_iter()
        .find(|(l, _)| l == "tpcw/clean/s2")
        .expect("slice carries the clean s2 scenario");
    let on = run_tpcw(shrink(cfg.clone()));
    let off = run_tpcw(shrink(TpcwConfig {
        comm_log: false,
        ..cfg
    }));
    assert!(on.tail.comm.is_some() && off.tail.comm.is_none());
    assert_eq!(
        on.dumps, off.dumps,
        "recording the comm log perturbed the profile dumps"
    );
    assert_eq!(on.tail.compute_truth, off.tail.compute_truth);
}
