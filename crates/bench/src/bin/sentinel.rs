//! sentinel: always-on SLO watchdog and anomaly-capture bench.
//!
//! Exercises the full sentinel loop the way a deployment would run it:
//!
//! 1. **Calibrate** a budget from one known-clean TPC-W scenario
//!    (tail quantiles per tier, crosstalk, quarantine).
//! 2. **False-repro sweep**: every clean scenario of the seed × policy
//!    matrix runs under the calibrated budget — any trip is a false
//!    repro and fails the bench (the zero-false-repro gate).
//! 3. **Faultstorm capture**: a mysql slowdown is planted at a known
//!    onset epoch; the bench measures detection latency (trip epoch
//!    minus onset), captures a window-scoped repro, shrinks it, and
//!    verifies bit-identical replay through the capture oracle. The
//!    repro bundle and the rendered incident report are written next
//!    to the JSON output.
//! 4. **Always-on cost, as exact counts**: the same recorded clean
//!    stream, replicated to a 32-replica fleet, is ingested through a
//!    plain `Collector` and through a `SentinelSink`. What the sentinel
//!    adds while nothing is wrong is one observation per epoch and one
//!    ring snapshot per `SNAPSHOT_EVERY` epochs, and it must change
//!    nothing: the two report fingerprints are equal, every epoch was
//!    observed, exactly the due snapshots were taken, and nothing
//!    tripped. (How long that takes is `benchmark/`'s business.)
//!
//! Results go to `BENCH_sentinel.json`. Modes:
//!
//! - `sentinel [--clients C] [--duration-s S] [--factor F]
//!   [--out FILE]` — full matrix.
//! - `sentinel --smoke` — reduced seed × policy set; CI gate.

use std::process::ExitCode;
use whodunit_apps::chaos::Assembly;
use whodunit_apps::sentinel::{calibrate_budget, capture_incident, run_with_sentinel};
use whodunit_bench::{fleet_stream, header, write_json_file};
use whodunit_collector::sentinel::{QUANTILE_PPM, WARMUP_EPOCHS, WINDOW_EPOCHS};
use whodunit_collector::{Collector, CollectorConfig, SentinelSink, SloBudget};
use whodunit_core::cost::CPU_HZ;
use whodunit_core::delta::{DeltaSink, EpochBatch, RecordingSink, StreamHeader};
use whodunit_core::repro::{repro_to_json, ChaosRepro, FaultEntry};
use whodunit_report::render_incident;

const MATRIX_SEEDS: &[u64] = &[1, 2, 3, 5, 8, 13];

/// Ring-snapshot cadence of the always-on run, in epochs.
const SNAPSHOT_EVERY: u64 = 8;

struct Args {
    clients: u64,
    duration_s: u64,
    factor: u64,
    out: String,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        clients: 12,
        duration_s: 25,
        factor: 8,
        out: "BENCH_sentinel.json".to_owned(),
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{arg} requires a value"));
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{arg}: {e}"));
        match arg.as_str() {
            "--clients" => a.clients = num(val()?)?,
            "--duration-s" => a.duration_s = num(val()?)?,
            "--factor" => a.factor = num(val()?)?,
            "--out" => a.out = val()?,
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if a.duration_s < 12 {
        return Err("--duration-s must be at least 12 (fault onset is at 10s)".into());
    }
    Ok(a)
}

/// The seed × policy matrix of clean scenarios (the same family the
/// streaming differential tests lock down).
fn clean_matrix(smoke: bool) -> Vec<(u64, String)> {
    let seeds: &[u64] = if smoke {
        &MATRIX_SEEDS[..2]
    } else {
        MATRIX_SEEDS
    };
    let mut out = Vec::new();
    for &seed in seeds {
        out.push((seed, "fifo".to_owned()));
        out.push((seed, format!("random:{}", seed ^ 0xa5)));
        if !smoke {
            out.push((seed, format!("perturb:{}:200000", seed ^ 0x5a)));
        }
    }
    out
}

fn matrix_repro(args: &Args, seed: u64, policy: &str) -> ChaosRepro {
    let mut r = ChaosRepro {
        seed,
        policy: policy.to_owned(),
        workload: Assembly::Tpcw.workload(),
        faults: Vec::new(),
        violation: None,
        window: None,
    };
    r.set_knob("clients", args.clients);
    r.set_knob("duration", args.duration_s * CPU_HZ);
    r.set_knob("warmup", 5 * CPU_HZ);
    r
}

/// What the always-on sentinel did over one clean stream, next to a
/// plain collector fed the same batches.
struct AlwaysOn {
    epochs: u64,
    epochs_seen: u64,
    snapshots_due: u64,
    ring_snapshots: u64,
    tripped: bool,
    plain_fp: u64,
    sentinel_fp: u64,
}

impl AlwaysOn {
    fn identical(&self) -> bool {
        self.plain_fp == self.sentinel_fp
    }

    fn holds(&self) -> bool {
        self.identical()
            && self.epochs_seen == self.epochs
            && self.ring_snapshots == self.snapshots_due
            && !self.tripped
    }
}

/// Ingests `batches` through a plain `Collector` and through a
/// `SentinelSink`, counting the sentinel's per-epoch work. The ring
/// keeps only its newest entries, so snapshots are counted as they
/// are taken: one each time the ring's newest epoch moves.
fn always_on_counts(header: &StreamHeader, batches: &[EpochBatch], budget: &SloBudget) -> AlwaysOn {
    let mut plain = Collector::new(CollectorConfig::default());
    let mut sink = SentinelSink::new(CollectorConfig::default(), budget.clone())
        .with_snapshot_every(SNAPSHOT_EVERY);
    plain.on_start(header);
    sink.on_start(header);
    let newest = |s: &SentinelSink| s.snapshots().back().map(|(e, _)| *e);
    let mut ring_snapshots = 0u64;
    for b in batches {
        plain.on_batch(b.clone());
        let before = newest(&sink);
        sink.on_batch(b.clone());
        ring_snapshots += u64::from(newest(&sink) != before);
    }
    let (out, sentinel, _) = sink.finish();
    AlwaysOn {
        epochs: batches.len() as u64,
        epochs_seen: sentinel.epochs_seen(),
        snapshots_due: batches
            .iter()
            .filter(|b| b.epoch % SNAPSHOT_EVERY == 0)
            .count() as u64,
        ring_snapshots,
        tripped: sentinel.tripped().is_some(),
        plain_fp: plain.finalize().report.fingerprint(),
        sentinel_fp: out.report.fingerprint(),
    }
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    args: &Args,
    budget: &SloBudget,
    clean_total: usize,
    false_repros: u64,
    inc: &whodunit_apps::sentinel::Incident,
    onset_epoch: u64,
    shrunk_duration: u64,
    on: &AlwaysOn,
) {
    let latency = inc.violation.epoch.saturating_sub(onset_epoch);
    let s = inc.card.shrink.as_ref().expect("shrink summary");
    let r = inc.card.replay.as_ref().expect("replay summary");
    let before_work = args.duration_s * args.clients;
    let after_work = (shrunk_duration / CPU_HZ) * s.clients_after;
    let shrink_ratio = after_work as f64 / before_work.max(1) as f64;
    let mut j = String::from("{\n");
    j.push_str("  \"bench\": \"sentinel\",\n");
    j.push_str(&format!(
        "  \"config\": {{\"clients\": {}, \"duration_s\": {}, \"slowdown_factor\": {}, \"smoke\": {}}},\n",
        args.clients, args.duration_s, args.factor, args.smoke
    ));
    j.push_str(&format!(
        "  \"budget\": {{\"quantile_ppm\": {QUANTILE_PPM}, \"stages\": {}, \"window_epochs\": {WINDOW_EPOCHS}, \"warmup_epochs\": {WARMUP_EPOCHS}}},\n",
        budget.stage_cycles.len(),
    ));
    j.push_str(&format!("  \"clean_scenarios\": {clean_total},\n"));
    j.push_str(&format!("  \"false_repros\": {false_repros},\n"));
    j.push_str(&format!(
        "  \"detection\": {{\"dimension\": \"{}\", \"onset_epoch\": {}, \"trip_epoch\": {}, \"latency_epochs\": {}}},\n",
        inc.violation.dimension, onset_epoch, inc.violation.epoch, latency
    ));
    j.push_str(&format!(
        "  \"capture\": {{\"runs\": {}, \"faults_before\": {}, \"faults_after\": {}, \"clients_before\": {}, \"clients_after\": {}, \"duration_before_s\": {}, \"duration_after_s\": {}, \"shrink_ratio\": {:.4}}},\n",
        inc.capture_runs,
        s.faults_before,
        s.faults_after,
        s.clients_before,
        s.clients_after,
        args.duration_s,
        shrunk_duration / CPU_HZ,
        shrink_ratio
    ));
    j.push_str(&format!(
        "  \"replay\": {{\"fingerprint\": \"{:016x}\", \"bit_identical\": {}, \"retripped\": {}, \"oracle_violations\": {}}},\n",
        r.fingerprint,
        r.bit_identical,
        r.retripped,
        inc.oracle.len()
    ));
    j.push_str(&format!(
        "  \"always_on\": {{\"epochs\": {}, \"epochs_seen\": {}, \"snapshot_every\": {}, \"snapshots_due\": {}, \"ring_snapshots\": {}, \"tripped\": {}, \"fingerprint\": \"{:016x}\", \"identical_output\": {}}}\n",
        on.epochs,
        on.epochs_seen,
        SNAPSHOT_EVERY,
        on.snapshots_due,
        on.ring_snapshots,
        on.tripped,
        on.sentinel_fp,
        on.identical()
    ));
    j.push_str("}\n");
    write_json_file(path, &j);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sentinel: {e}");
            return ExitCode::FAILURE;
        }
    };
    header(
        "sentinel",
        "always-on SLO watchdog: detection latency, shrink ratio, always-on counts",
    );

    // 1. Calibrate from the first clean scenario of the matrix.
    let baseline = matrix_repro(&args, MATRIX_SEEDS[0], "fifo");
    let budget = calibrate_budget(&baseline, CPU_HZ, 3, 2);
    println!(
        "calibrated budget: {} stage tails at p{:.2}, xt {:?}, quarantine {:?}",
        budget.stage_cycles.len(),
        QUANTILE_PPM as f64 / 10_000.0,
        budget.xt_wait,
        budget.max_quarantined
    );

    // 2. Zero-false-repro sweep over the clean matrix.
    let matrix = clean_matrix(args.smoke);
    let mut false_repros = 0u64;
    for (seed, policy) in &matrix {
        let run = run_with_sentinel(&matrix_repro(&args, *seed, policy), &budget, CPU_HZ);
        match &run.violation {
            Some(v) => {
                false_repros += 1;
                eprintln!("FALSE REPRO: seed {seed} policy {policy}: {v}");
            }
            None => println!(
                "clean: seed {seed:2} policy {policy:<18} ok ({} epochs)",
                run.epochs
            ),
        }
    }
    println!(
        "false repros: {false_repros}/{} clean scenarios",
        matrix.len()
    );

    // 3. Faultstorm: plant a mysql slowdown at a known onset, capture.
    let onset_epoch = 10u64;
    let mut storm = matrix_repro(&args, MATRIX_SEEDS[0], "fifo");
    storm.faults = vec![FaultEntry::Slowdown {
        machine: "mysql".into(),
        from: onset_epoch * CPU_HZ,
        until: args.duration_s * CPU_HZ,
        factor: args.factor,
    }];
    let inc = match capture_incident(&storm, &budget, CPU_HZ) {
        Some(inc) => inc,
        None => {
            eprintln!(
                "FAIL: faultstorm (factor {}) never tripped the sentinel",
                args.factor
            );
            return ExitCode::FAILURE;
        }
    };
    let shrunk_duration = inc
        .repro
        .knob("duration")
        .unwrap_or(args.duration_s * CPU_HZ);
    println!(
        "detected {} at epoch {} (onset {}, latency {} epochs); capture took {} runs",
        inc.violation.dimension,
        inc.violation.epoch,
        onset_epoch,
        inc.violation.epoch.saturating_sub(onset_epoch),
        inc.capture_runs
    );
    println!(
        "shrunk: duration {}s -> {}s; replay {}",
        args.duration_s,
        shrunk_duration / CPU_HZ,
        if inc.oracle.is_empty() {
            "verified bit-identical"
        } else {
            "FAILED ORACLE"
        }
    );

    // Write the self-contained bundle next to the JSON output.
    let base = args.out.strip_suffix(".json").unwrap_or(&args.out);
    let repro_path = format!("{base}.repro.json");
    let report_path = format!("{base}.incident.txt");
    write_json_file(&repro_path, &repro_to_json(&inc.repro));
    std::fs::write(&report_path, render_incident(&inc.card))
        .unwrap_or_else(|e| panic!("write {report_path}: {e}"));
    println!("wrote {repro_path} and {report_path}");

    // 4. Always-on cost as exact counts. The recorded baseline stream
    // is replicated to fleet size first, the same in smoke and full
    // mode, so CI checks the deployment shape the full bench records.
    let mut rec = RecordingSink::default();
    Assembly::Tpcw.run_streaming(&baseline, CPU_HZ, &mut rec);
    let (fleet_hdr, fleet_batches) = fleet_stream(&rec.header, &rec.batches, 32, 2);
    let on = always_on_counts(&fleet_hdr, &fleet_batches, &budget);
    println!(
        "always-on: {}/{} epochs observed, {}/{} ring snapshots, tripped={}, fingerprint {:016x} (plain {:016x})",
        on.epochs_seen,
        on.epochs,
        on.ring_snapshots,
        on.snapshots_due,
        on.tripped,
        on.sentinel_fp,
        on.plain_fp
    );

    write_json(
        &args.out,
        &args,
        &budget,
        matrix.len(),
        false_repros,
        &inc,
        onset_epoch,
        shrunk_duration,
        &on,
    );
    println!("wrote {}", args.out);

    let replay_ok = inc.oracle.is_empty()
        && inc
            .card
            .replay
            .as_ref()
            .is_some_and(|r| r.bit_identical && r.retripped);
    let always_on_ok = on.holds();
    if false_repros > 0 || !replay_ok || !always_on_ok {
        eprintln!(
            "FAIL: false_repros={false_repros} replay_ok={replay_ok} always_on_ok={always_on_ok}"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "gates passed: zero false repros, bit-identical verified replay, sentinel observation-only"
    );
    ExitCode::SUCCESS
}
