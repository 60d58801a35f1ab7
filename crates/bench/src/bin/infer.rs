//! infer: black-box inference quality sweep — per-scenario
//! precision/recall/F1 of `whodunit-infer` against simulator ground
//! truth, across the topology zoo and the TPC-W inference slice,
//! under three visibility configurations.
//!
//! Every scenario runs once with the passive comm-event log enabled,
//! then the same log is stitched three ways:
//!
//! - `blackbox` — every tier opaque: pure timing/nesting inference
//!   over bare send/recv events (`infer_stitch`). The hard case and
//!   the one the clean-matrix F1 gate binds on.
//! - `hybrid` — one backend tier (proc 1) opaque, everything else
//!   cooperating: synopsis attribution where both endpoints cooperate,
//!   inference for the opaque remainder (`hybrid_stitch`).
//! - `full` — every tier cooperating: synopses resolve every recv, no
//!   inference runs. Must reproduce ground truth *exactly*.
//!
//! Each stitch is scored per-scenario (message pairings, request
//! origins, and the full-confidence pairing subset) and every score is
//! pushed through the core inference oracle, which recomputes the
//! rates and rejects inferred mass exceeding ground truth.
//!
//! Gates (any miss exits nonzero):
//!
//! - every clean scenario × every visibility config: pairs *and*
//!   origins F1 ≥ 0.95;
//! - `check_inference` clean on every row, faulty ones included;
//! - `full` rows reproduce the truth maps exactly;
//! - comm-log purity: the batch-analysis fingerprint of a fleet run
//!   with the comm log enabled equals the published fingerprint
//!   `20ca3d2b1a107f2a` (full mode) or a comm-off twin (smoke mode).
//!
//! Modes:
//!
//! - `infer [--slack N] [--out FILE]` — full sweep: 12 TPC-W
//!   scenarios (6 seeds × clean/faulty) + 3 topologies × 4 workload
//!   shapes, 3 visibility configs each.
//! - `infer --smoke` — reduced scenario set on shorter runs; same
//!   gates. Used as a CI gate.

use std::process::ExitCode;
use whodunit_apps::tpcw::run_tpcw;
use whodunit_apps::zoo::{run_zoo, Topology, ZooConfig};
use whodunit_bench::{
    fleet_config, header, json_escape, matrix, run_fleet, write_json_file, PUBLISHED_FLEET,
    PUBLISHED_FP,
};
use whodunit_core::blackbox::{CommLog, TierVisibility};
use whodunit_core::cost::CPU_HZ;
use whodunit_core::oracle::{check_inference, InferenceScore};
use whodunit_core::pipeline::{analyze, PipelineConfig};
use whodunit_infer::{
    evidence, hybrid_stitch, infer_stitch, score_confident_pairs, score_origins, score_pairs,
    PairingConfig,
};
use whodunit_sim::fault::ChannelFaults;
use whodunit_sim::ScenarioFaults;
use whodunit_workload::LoadShape;

/// Clean-scenario F1 floor, ppm.
const GATE_F1_PPM: u64 = 950_000;

struct Args {
    slack: u64,
    out: String,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        slack: 0,
        out: "BENCH_infer.json".to_owned(),
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--slack" => a.slack = val()?.parse().map_err(|e| format!("{arg}: {e}"))?,
            "--out" => a.out = val()?,
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

/// One simulated run whose comm log the visibility sweep stitches.
struct Scenario {
    label: String,
    clean: bool,
    log: CommLog,
}

/// The zoo storm plan: lossy frontend, lossy/dup/laggy backbone —
/// the same shape as the TPC-W matrix fault plan.
fn zoo_storm(seed: u64) -> ScenarioFaults {
    ScenarioFaults {
        seed: seed ^ 0xfa07,
        front: ChannelFaults {
            drop_p: 0.01,
            ..Default::default()
        },
        backbone: ChannelFaults {
            drop_p: 0.02,
            dup_p: 0.01,
            delay_p: 0.05,
            delay_cycles: CPU_HZ / 100,
        },
        ..Default::default()
    }
}

/// Builds the scenario corpus: the TPC-W inference slice plus the
/// topology zoo under its workload shapes.
fn build_scenarios(smoke: bool) -> Vec<Scenario> {
    let mut out = Vec::new();

    for (label, mut cfg) in matrix::inference_slice() {
        // Smoke keeps two seeds per fault arm on shortened runs.
        if smoke {
            if !(label.ends_with("/s1") || label.ends_with("/s2")) {
                continue;
            }
            cfg.clients = 8;
            cfg.duration = 12 * CPU_HZ;
            cfg.warmup = 3 * CPU_HZ;
        }
        let clean = cfg.faults.is_none();
        let report = run_tpcw(cfg);
        let log = report.tail.comm.expect("inference slice records comm logs");
        out.push(Scenario { label, clean, log });
    }

    let shapes: Vec<(&str, LoadShape, Option<ScenarioFaults>)> = vec![
        ("clean/steady", LoadShape::Steady, None),
        (
            "clean/flash",
            LoadShape::FlashCrowd {
                at: 10 * CPU_HZ,
                len: 8 * CPU_HZ,
                surge_ppm: 300_000,
            },
            None,
        ),
        (
            "clean/diurnal",
            LoadShape::Diurnal {
                period: 12 * CPU_HZ,
                lo_ppm: 400_000,
                hi_ppm: 1_600_000,
            },
            None,
        ),
        ("faulty/storm", LoadShape::Steady, Some(zoo_storm(3))),
    ];
    for t in Topology::ALL {
        for (shape_name, shape, faults) in &shapes {
            // Smoke keeps the two extremes: steady-clean and the storm.
            if smoke && (shape_name.ends_with("flash") || shape_name.ends_with("diurnal")) {
                continue;
            }
            let mut cfg = ZooConfig {
                topology: t,
                seed: 3,
                shape: *shape,
                faults: *faults,
                comm_log: true,
                ..ZooConfig::default()
            };
            if smoke {
                cfg.clients = 8;
                cfg.duration = 12 * CPU_HZ;
                cfg.warmup = 3 * CPU_HZ;
            }
            let report = run_zoo(&cfg);
            let log = report.tail.comm.expect("zoo records comm logs when asked");
            out.push(Scenario {
                label: format!("{}/{shape_name}", t.name()),
                clean: faults.is_none(),
                log,
            });
        }
    }
    out
}

/// One scored (scenario, visibility) cell.
struct Row {
    scenario: String,
    clean: bool,
    vis: &'static str,
    recvs: u64,
    sends: u64,
    pairs: InferenceScore,
    origins: InferenceScore,
    confident: InferenceScore,
    oracle_ok: bool,
    /// `full` rows only: the stitch reproduced both truth maps exactly.
    exact: bool,
}

/// Stitches one scenario under one visibility config and scores it.
fn run_cell(sc: &Scenario, vis: &'static str, pc: &PairingConfig) -> Row {
    let procs = sc.log.events.iter().map(|e| e.proc).max().unwrap_or(0) as usize + 1;
    let stitch = match vis {
        "blackbox" => infer_stitch(&sc.log.events, pc),
        "hybrid" => {
            // One backend tier dark (proc 1: tomcat / svc0 / sub0 /
            // shard0), everything else cooperating.
            let mut v = vec![TierVisibility::Cooperating; procs];
            v[1.min(procs - 1)] = TierVisibility::Opaque;
            hybrid_stitch(&sc.log, &v, pc)
        }
        "full" => hybrid_stitch(&sc.log, &vec![TierVisibility::Cooperating; procs], pc),
        other => unreachable!("unknown visibility config {other}"),
    };
    let ev = evidence(&stitch, &sc.log);
    let exact = vis != "full"
        || (stitch.pair_map() == sc.log.truth_pairs()
            && stitch.origin_map() == sc.log.truth_origins());
    Row {
        scenario: sc.label.clone(),
        clean: sc.clean,
        vis,
        recvs: sc.log.recv_count() as u64,
        sends: sc.log.send_count() as u64,
        pairs: score_pairs(&stitch, &sc.log),
        origins: score_origins(&stitch, &sc.log),
        confident: score_confident_pairs(&stitch, &sc.log),
        oracle_ok: check_inference(&ev).is_empty(),
        exact,
    }
}

/// Analyzes a TPC-W fleet with the comm log on and (in smoke mode)
/// off, returning `(comm_on_fp, expected_fp, identical)`. Outside smoke
/// mode the fleet is the published one, and a comm-log-enabled run must
/// still produce exactly its [`PUBLISHED_FP`].
fn batch_identity(smoke: bool) -> (u64, u64, bool) {
    let (clients, duration_s, replicas) = if smoke { (12, 20, 16) } else { PUBLISHED_FLEET };
    let mut cfg = fleet_config(clients, duration_s);
    cfg.comm_log = true;
    let (_report, fleet) = run_fleet(cfg, replicas);
    let on_fp = analyze(fleet, PipelineConfig::default()).fingerprint();
    let expected = if smoke {
        // The published constant pins the full-size fleet; smoke pins
        // the same property against a freshly-run comm-off twin.
        let (_r, fleet_off) = run_fleet(fleet_config(clients, duration_s), replicas);
        analyze(fleet_off, PipelineConfig::default()).fingerprint()
    } else {
        PUBLISHED_FP
    };
    (on_fp, expected, on_fp == expected)
}

fn score_json(s: &InferenceScore) -> String {
    format!(
        "{{\"asserted\": {}, \"truth\": {}, \"correct\": {}, \"precision_ppm\": {}, \"recall_ppm\": {}, \"f1_ppm\": {}}}",
        s.asserted,
        s.truth,
        s.correct,
        s.reported_precision_ppm,
        s.reported_recall_ppm,
        s.reported_f1_ppm
    )
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    args: &Args,
    rows: &[Row],
    scenarios: usize,
    clean_min_f1: u64,
    batch: (u64, u64, bool),
    oracle_clean: bool,
    full_exact: bool,
    ok: bool,
) {
    let mut j = String::from("{\n");
    j.push_str("  \"bench\": \"infer\",\n");
    j.push_str(&format!(
        "  \"config\": {{\"scenarios\": {scenarios}, \"vis_configs\": 3, \"delay_slack\": {}, \"smoke\": {}}},\n",
        args.slack, args.smoke
    ));
    j.push_str(&format!(
        "  \"batch\": {{\"fingerprint\": \"{:016x}\", \"expected\": \"{:016x}\", \"identical_output\": {}}},\n",
        batch.0, batch.1, batch.2
    ));
    j.push_str(&format!("  \"gate_f1_ppm\": {GATE_F1_PPM},\n"));
    j.push_str(&format!("  \"clean_min_f1_ppm\": {clean_min_f1},\n"));
    j.push_str(&format!("  \"oracle_clean\": {oracle_clean},\n"));
    j.push_str(&format!("  \"full_exact\": {full_exact},\n"));
    j.push_str("  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"vis\": \"{}\", \"clean\": {}, \"recvs\": {}, \"sends\": {}, \"pairs\": {}, \"origins\": {}, \"confident\": {}, \"oracle_ok\": {}}}{}\n",
            json_escape(&r.scenario),
            r.vis,
            r.clean,
            r.recvs,
            r.sends,
            score_json(&r.pairs),
            score_json(&r.origins),
            score_json(&r.confident),
            r.oracle_ok,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");
    j.push_str(&format!("  \"ok\": {ok}\n}}\n"));
    write_json_file(path, &j);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("infer: {e}");
            return ExitCode::FAILURE;
        }
    };
    header(
        "infer",
        "black-box inference stitching: P/R/F1 vs ground truth across topologies x visibility",
    );

    let pc = PairingConfig {
        delay_slack: args.slack,
    };
    let scenarios = build_scenarios(args.smoke);
    println!(
        "{} scenarios x 3 visibility configs (delay_slack={})",
        scenarios.len(),
        args.slack
    );

    let mut rows = Vec::new();
    for sc in &scenarios {
        for vis in ["blackbox", "hybrid", "full"] {
            let r = run_cell(sc, vis, &pc);
            println!(
                "{:<22} {:<9} recvs {:>6}  pairs F1 {:>7}  origins F1 {:>7}  confident P {:>7} R {:>7}  oracle={}",
                r.scenario,
                r.vis,
                r.recvs,
                r.pairs.reported_f1_ppm,
                r.origins.reported_f1_ppm,
                r.confident.reported_precision_ppm,
                r.confident.reported_recall_ppm,
                if r.oracle_ok { "ok" } else { "VIOLATION" }
            );
            rows.push(r);
        }
    }

    let clean_min_f1 = rows
        .iter()
        .filter(|r| r.clean)
        .map(|r| r.pairs.reported_f1_ppm.min(r.origins.reported_f1_ppm))
        .min()
        .unwrap_or(0);
    let oracle_clean = rows.iter().all(|r| r.oracle_ok);
    let full_exact = rows.iter().all(|r| r.exact);

    println!("checking comm-log purity against the batch fingerprint...");
    let batch = batch_identity(args.smoke);
    println!(
        "batch fingerprint {:016x} (expected {:016x}) identical={}",
        batch.0, batch.1, batch.2
    );

    let ok = clean_min_f1 >= GATE_F1_PPM && oracle_clean && full_exact && batch.2;
    write_json(
        &args.out,
        &args,
        &rows,
        scenarios.len(),
        clean_min_f1,
        batch,
        oracle_clean,
        full_exact,
        ok,
    );
    println!("wrote {}", args.out);
    println!(
        "clean-matrix min F1 {:.3} (gate {:.3})  oracle_clean={oracle_clean}  full_exact={full_exact}",
        clean_min_f1 as f64 / 1e6,
        GATE_F1_PPM as f64 / 1e6
    );

    if !ok {
        if clean_min_f1 < GATE_F1_PPM {
            eprintln!("FAIL: clean-scenario F1 below gate");
        }
        if !oracle_clean {
            eprintln!("FAIL: inference-accounting oracle violation");
        }
        if !full_exact {
            eprintln!("FAIL: full-visibility stitch diverged from ground truth");
        }
        if !batch.2 {
            eprintln!("FAIL: comm log perturbed the batch fingerprint");
        }
        return ExitCode::FAILURE;
    }
    println!("all gates green");
    ExitCode::SUCCESS
}
