//! chaos: deterministic schedule/fault fuzzing over the 3-tier TPC-W
//! stack with invariant oracles, record-replay, and shrinking.
//!
//! Modes:
//!
//! - `chaos --seeds N [--base B] [--clients C] [--duration-s S] [--out DIR]`
//!   runs N sampled scenarios (each a distinct schedule policy + fault
//!   plan over the same workload), checks every oracle after each run,
//!   and on a violation shrinks the scenario and writes a repro file.
//!   Exits nonzero if any seed violated an oracle.
//! - `chaos --replay FILE` re-executes a repro file twice, verifies the
//!   two executions are bit-identical (equal fingerprints), and checks
//!   that the recorded violation — if any — re-triggers. A workload
//!   knob the file does not carry replays at the workload's default
//!   (TPC-W: 48 clients, a 60 s horizon). Sentinel
//!   bundles (violation `slo:*`) are re-judged by reconstructing the
//!   tripped budget from the bundle's `slo_*` knobs and streaming the
//!   scenario through the sentinel.
//! - `chaos --selftest [--out DIR]` plants a known bounded-progress
//!   defect (the `livelock_pair` knob), verifies the explorer catches
//!   it, shrinks it, writes the repro, and replays it from disk —
//!   exercising the whole find → shrink → record → replay pipeline.

use std::process::ExitCode;
use whodunit_apps::chaos::{Assembly, SHRINKABLE_KNOBS};
use whodunit_apps::sentinel::run_with_sentinel;
use whodunit_bench::header;
use whodunit_collector::sentinel::SloBudget;
use whodunit_core::cost::CPU_HZ;
use whodunit_core::repro::{repro_from_json, repro_to_json, ChaosRepro, FaultEntry};
use whodunit_sim::explore::{sample_scenario, shrink};

struct Args {
    seeds: u64,
    base: u64,
    clients: Option<u64>,
    duration_s: Option<u64>,
    out: String,
    replay: Option<String>,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        seeds: 0,
        base: 0,
        clients: None,
        duration_s: None,
        out: "results/chaos".to_owned(),
        replay: None,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{arg} requires a value"));
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{arg}: {e}"));
        match arg.as_str() {
            "--seeds" => a.seeds = num(val()?)?,
            "--base" => a.base = num(val()?)?,
            "--clients" => a.clients = Some(num(val()?)?),
            "--duration-s" => a.duration_s = Some(num(val()?)?),
            "--out" => a.out = val()?,
            "--replay" => a.replay = Some(val()?),
            "--selftest" => a.selftest = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

fn workload_for(args: &Args) -> Vec<(String, u64)> {
    let mut w = Assembly::Tpcw.workload();
    let mut set = |name: &str, v: u64| {
        if let Some(k) = w.iter_mut().find(|(n, _)| n == name) {
            k.1 = v;
        }
    };
    if let Some(c) = args.clients {
        set("clients", c);
    }
    if let Some(s) = args.duration_s {
        set("duration", s * CPU_HZ);
        set("warmup", s * CPU_HZ / 4);
    }
    w
}

fn write_repro(out_dir: &str, name: &str, repro: &ChaosRepro) -> std::io::Result<String> {
    std::fs::create_dir_all(out_dir)?;
    let path = format!("{out_dir}/{name}.json");
    std::fs::write(&path, repro_to_json(repro))?;
    Ok(path)
}

/// Shrinks a failing scenario against its first violation kind and
/// writes the minimized repro. Returns the file path.
fn shrink_and_record(
    out_dir: &str,
    name: &str,
    repro: &ChaosRepro,
    kind: &str,
) -> std::io::Result<String> {
    let before = (repro.faults.len(), repro.knob("clients").unwrap_or(0));
    let mut small = shrink(repro, SHRINKABLE_KNOBS, |c| {
        Assembly::Tpcw.run(c).has_violation(kind)
    });
    small.violation = Some(kind.to_owned());
    println!(
        "  shrunk: {} faults -> {}, clients {} -> {}",
        before.0,
        small.faults.len(),
        before.1,
        small.knob("clients").unwrap_or(0)
    );
    write_repro(out_dir, name, &small)
}

fn fuzz(args: &Args) -> ExitCode {
    header("chaos", "schedule/fault fuzzing with invariant oracles");
    let space = Assembly::Tpcw.space();
    let workload = workload_for(args);
    let mut violations = 0u64;
    for seed in args.base..args.base + args.seeds {
        let repro = sample_scenario(seed, &space, &workload);
        let res = Assembly::Tpcw.run(&repro);
        let (d, u, l) = res.faults_seen;
        println!(
            "seed {seed:>4}  policy {:<24} faults {:>2}  dropped {d:>4} dup {u:>3} delayed {l:>4}  {}",
            repro.policy,
            repro.faults.len(),
            if res.violations.is_empty() {
                "ok".to_owned()
            } else {
                format!("VIOLATION: {}", res.violations[0])
            }
        );
        if let Some(v) = res.violations.first() {
            violations += 1;
            match shrink_and_record(&args.out, &format!("repro-seed{seed}"), &repro, v.kind()) {
                Ok(path) => println!("  repro written: {path}"),
                Err(e) => println!("  FAILED to write repro: {e}"),
            }
        }
    }
    if violations > 0 {
        println!(
            "\nchaos: {violations} of {} seeds violated an oracle",
            args.seeds
        );
        ExitCode::FAILURE
    } else {
        println!("\nchaos: all {} seeds upheld every oracle", args.seeds);
        ExitCode::SUCCESS
    }
}

fn replay(path: &str) -> ExitCode {
    header("chaos --replay", path);
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            println!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let repro = match repro_from_json(&text) {
        Ok(r) => r,
        Err(e) => {
            println!("cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "seed {}  policy {}  faults {}  expected violation: {}",
        repro.seed,
        repro.policy,
        repro.faults.len(),
        repro.violation.as_deref().unwrap_or("none")
    );
    let a = Assembly::Tpcw.run(&repro);
    let b = Assembly::Tpcw.run(&repro);
    if a.fingerprint != b.fingerprint {
        println!(
            "NOT REPRODUCIBLE: fingerprints differ ({:#018x} vs {:#018x})",
            a.fingerprint, b.fingerprint
        );
        return ExitCode::FAILURE;
    }
    println!(
        "bit-identical     two executions, fingerprint {:#018x}",
        a.fingerprint
    );
    println!("outcome           {}", a.outcome);
    for v in &a.violations {
        println!("violation         {v}");
    }
    match &repro.violation {
        // Sentinel bundles record an SLO trip, not an oracle violation:
        // the plain run above proves bit-identity, and the budget is
        // re-judged by streaming the same scenario through the sentinel.
        Some(kind) if kind.starts_with("slo:") => verify_slo(&repro, kind),
        Some(kind) if !a.has_violation(kind) => {
            println!("MISMATCH: recorded violation '{kind}' did not re-trigger");
            ExitCode::FAILURE
        }
        Some(kind) => {
            println!("replay            recorded violation '{kind}' re-triggered");
            ExitCode::SUCCESS
        }
        None if !a.violations.is_empty() => {
            println!("MISMATCH: clean repro now violates an oracle");
            ExitCode::FAILURE
        }
        None => {
            println!("replay            clean run, as recorded");
            ExitCode::SUCCESS
        }
    }
}

/// Re-judge a sentinel-captured SLO trip. The bundle is self-contained:
/// the `slo_*` knobs carry the tripped dimension's ceiling and the
/// watchdog's window parameters, and `window` carries the epoch length
/// and the trip epoch. Reconstructs a minimal single-dimension budget
/// and checks the same dimension trips at the same epoch.
fn verify_slo(repro: &ChaosRepro, kind: &str) -> ExitCode {
    let dim = &kind["slo:".len()..];
    let Some(win) = &repro.window else {
        println!("MISMATCH: slo repro has no capture window");
        return ExitCode::FAILURE;
    };
    let knob = |name: &str| {
        repro
            .knob(name)
            .ok_or_else(|| format!("MISMATCH: slo repro missing knob '{name}'"))
    };
    let reconstructed = || -> Result<SloBudget, String> {
        let ceiling = knob("slo_budget")?;
        let mut budget = SloBudget {
            quantile_ppm: knob("slo_quantile_ppm")?,
            window_epochs: knob("slo_window_epochs")?,
            warmup_epochs: knob("slo_warmup_epochs")?,
            ..SloBudget::default()
        };
        if let Some(stage) = dim.strip_prefix("tail:") {
            budget.stage_cycles = vec![(stage.to_owned(), ceiling)];
        } else if let Some(stage) = dim.strip_prefix("starve:") {
            budget.stage_floor = vec![(stage.to_owned(), ceiling)];
        } else if dim == "xt-wait" {
            budget.xt_wait = Some(ceiling);
        } else if dim == "quarantine" {
            budget.max_quarantined = Some(ceiling);
        } else {
            return Err(format!("MISMATCH: unknown slo dimension '{dim}'"));
        }
        Ok(budget)
    };
    let budget = match reconstructed() {
        Ok(b) => b,
        Err(msg) => {
            println!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let run = run_with_sentinel(repro, &budget, win.epoch_len);
    match run.violation {
        Some(v) if v.dimension == dim && v.epoch == win.end => {
            println!(
                "replay            slo trip '{dim}' re-triggered at epoch {} (observed {} > budget {})",
                v.epoch, v.observed, v.budget
            );
            ExitCode::SUCCESS
        }
        Some(v) => {
            println!(
                "MISMATCH: slo replay tripped '{}' at epoch {} (recorded '{}' at epoch {})",
                v.dimension, v.epoch, dim, win.end
            );
            ExitCode::FAILURE
        }
        None => {
            println!("MISMATCH: recorded violation '{kind}' did not re-trigger");
            ExitCode::FAILURE
        }
    }
}

fn selftest(args: &Args) -> ExitCode {
    header(
        "chaos --selftest",
        "planted livelock through the full pipeline",
    );

    // A scenario with the planted zero-latency ping-pong defect, plus
    // decoy fault entries the shrinker must discover are irrelevant.
    let mut repro = ChaosRepro {
        seed: 0xDEFEC7,
        policy: "random:1".to_owned(),
        workload: Assembly::Tpcw.workload(),
        faults: vec![
            FaultEntry::Drop {
                chan: "db".into(),
                ppm: 20_000,
            },
            FaultEntry::Delay {
                chan: "front".into(),
                ppm: 50_000,
                cycles: CPU_HZ / 1000,
            },
        ],
        violation: None,
        window: None,
    };
    repro.set_knob("livelock_pair", 1);
    repro.set_knob("step_budget", 50_000);

    let res = Assembly::Tpcw.run(&repro);
    assert!(
        res.has_violation("progress"),
        "planted livelock not caught; violations: {:?}",
        res.violations
    );
    println!("find              progress oracle fired: {}", res.outcome);

    let path = match shrink_and_record(&args.out, "repro-selftest", &repro, "progress") {
        Ok(p) => p,
        Err(e) => {
            println!("FAILED to write repro: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("record            {path}");

    // Re-read from disk and verify the shrunk repro still fails, the
    // decoys are gone, and the run is bit-reproducible.
    let back = repro_from_json(&std::fs::read_to_string(&path).expect("repro readable"))
        .expect("repro parses");
    assert!(back.faults.is_empty(), "decoy faults survived shrinking");
    assert_eq!(back.knob("clients"), Some(1), "clients not shrunk");
    assert_eq!(back.violation.as_deref(), Some("progress"));
    let a = Assembly::Tpcw.run(&back);
    let b = Assembly::Tpcw.run(&back);
    assert_eq!(a.fingerprint, b.fingerprint, "replay not bit-identical");
    assert!(a.has_violation("progress"), "shrunk repro lost the failure");
    println!("replay            shrunk repro re-triggers 'progress', bit-identically");

    println!("\nchaos --selftest: find -> shrink -> record -> replay all held");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            println!("chaos: {e}");
            println!(
                "usage: chaos --seeds N [--base B] [--clients C] [--duration-s S] [--out DIR]"
            );
            println!("       chaos --replay FILE");
            println!("       chaos --selftest [--out DIR]");
            return ExitCode::FAILURE;
        }
    };
    if args.selftest {
        selftest(&args)
    } else if let Some(path) = args.replay.clone() {
        replay(&path)
    } else if args.seeds > 0 {
        fuzz(&args)
    } else {
        println!("chaos: nothing to do (pass --seeds N, --replay FILE, or --selftest)");
        ExitCode::FAILURE
    }
}
