//! Table 2: peak TPC-W throughput (interactions/minute) under four
//! profiling configurations: none, csprof, Whodunit, gprof.
//!
//! Paper: 1184 / 1151 / 1150 / 898 — csprof's sampling costs ≈3%,
//! Whodunit adds <0.1% on top, gprof's per-call instrumentation costs
//! ≈24%. All profilers sample at gprof's default 666 Hz.
//!
//! The paper additionally reports the communication overhead of
//! synopsis piggybacking: 0.95 MB of transaction context against
//! 92.52 MB of data (≈1%); the Whodunit row prints the measured
//! equivalent.

use whodunit_apps::dbserver::Engine;
use whodunit_apps::rtconf::RtKind;
use whodunit_apps::tpcw::{run_tpcw, TpcwConfig};
use whodunit_bench::{compare, header};
use whodunit_core::cost::CPU_HZ;
use whodunit_report::table;

fn peak(rt: RtKind) -> (f64, Option<(u64, u64, u64)>) {
    // Run at saturation (past the knee) where throughput equals the
    // database's capacity under the given profiler.
    let r = run_tpcw(TpcwConfig {
        clients: 220,
        engine: Engine::MyIsam,
        caching: false,
        rt,
        duration: 320 * CPU_HZ,
        warmup: 80 * CPU_HZ,
        ..TpcwConfig::default()
    });
    assert!(r.outcome.is_ok(), "the run ended early: {}", r.outcome);
    let msgs = r.dumps.iter().map(|d| d.messages).sum::<u64>();
    (
        r.throughput_per_min,
        if r.piggyback_bytes > 0 {
            Some((r.piggyback_bytes, msgs, r.wire_bytes))
        } else {
            None
        },
    )
}

fn main() {
    header(
        "Table 2",
        "peak TPC-W throughput under no profiling / csprof / Whodunit / gprof",
    );
    let paper = [
        (RtKind::None, 1184.0),
        (RtKind::Csprof, 1151.0),
        (RtKind::Whodunit, 1150.0),
        (RtKind::Gprof, 898.0),
    ];
    let mut measured = Vec::new();
    for &(rt, _) in &paper {
        measured.push(peak(rt));
    }
    let rows: Vec<Vec<String>> = paper
        .iter()
        .zip(&measured)
        .map(|(&(rt, p), &(m, _))| vec![rt.label().to_owned(), table::f(p, 0), table::f(m, 0)])
        .collect();
    println!(
        "{}",
        table::render(&["Profiler", "Paper tx/min", "Measured tx/min"], &rows)
    );

    let base = measured[0].0;
    compare(
        "csprof overhead",
        2.8,
        100.0 * (1.0 - measured[1].0 / base),
        "%",
    );
    compare(
        "Whodunit overhead",
        2.9,
        100.0 * (1.0 - measured[2].0 / base),
        "%",
    );
    compare(
        "gprof overhead",
        24.2,
        100.0 * (1.0 - measured[3].0 / base),
        "%",
    );
    if let Some((bytes, msgs, wire)) = measured[2].1 {
        println!(
            "\nWhodunit piggyback: {:.2} MB of transaction context over {} messages,\n             against {:.2} MB of data — {:.2}% communication overhead \n             (paper: 0.95 MB vs 92.52 MB, ≈1%)",
            bytes as f64 / 1e6,
            msgs,
            wire as f64 / 1e6,
            bytes as f64 * 100.0 / wire as f64
        );
    }
    assert!(
        measured[3].0 < measured[1].0,
        "gprof costs more than csprof"
    );
    assert!(
        measured[2].0 > 0.9 * measured[1].0,
        "Whodunit stays close to csprof"
    );
}
