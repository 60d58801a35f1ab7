//! `--selfcheck`: an A/A run. The medians of two interleaved sets of
//! runs of every workload, from this one binary, must agree within the
//! bounds `BENCHMARK.json` fixes.
//!
//! The contract gives one workload per invocation, so each run is a
//! child process and the interleaving is by run: round `k` runs every
//! workload once for set A and once for set B at seed `k + 1`,
//! alternating which set goes first, so both sets sample the same
//! phases of the host.

use std::process::{Command, ExitCode, Stdio};

use crate::harness::{Json, Summary};
use crate::workloads::WORKLOADS;
use crate::DEFAULT_SECONDS;

/// `BENCHMARK.json`, as committed beside this package.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Runs per set and workload.
const SETS_OF: usize = 5;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Gated {
    /// Metric name.
    pub name: String,
    /// Whether a larger value is the better one.
    pub higher_is_better: bool,
    /// Share of the median it may worsen by.
    pub bound: f64,
}

/// The end-to-end metrics and their bounds.
pub fn gated_metrics() -> Vec<Gated> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get("end_to_end")
        .expect("end_to_end")
        .items()
        .iter()
        .map(|m| Gated {
            name: m.get("name").and_then(Json::str).expect("name").to_owned(),
            higher_is_better: m.get("better").and_then(Json::str) == Some("higher"),
            bound: m.get("bound").and_then(Json::num).expect("bound"),
        })
        .collect()
}

/// By what share of `a` set `b`'s median is worse (negative: better).
pub fn worse_by(g: &Gated, a: f64, b: f64) -> f64 {
    if g.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

fn run_once(workload: &str, seed: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &DEFAULT_SECONDS.to_string()])
        .stdout(Stdio::piped());
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed}: exit {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    let doc = Json::parse(last)?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload} seed {seed}: not correct"));
    }
    Ok(doc)
}

/// Runs the self-check and prints its table.
pub fn run() -> ExitCode {
    let gated = gated_metrics();
    // values[workload][metric][set] = one value per round
    let mut values = vec![vec![[Vec::new(), Vec::new()]; gated.len()]; WORKLOADS.len()];
    for round in 0..SETS_OF {
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            for (wi, workload) in WORKLOADS.iter().enumerate() {
                eprintln!(
                    "selfcheck: round {}/{} set {} {workload}",
                    round + 1,
                    SETS_OF,
                    ["A", "B"][set]
                );
                let doc = match run_once(workload, round as u64 + 1) {
                    Ok(d) => d,
                    Err(e) => {
                        eprintln!("selfcheck: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                for (mi, g) in gated.iter().enumerate() {
                    let v = doc
                        .get("metrics")
                        .and_then(|m| m.get(&g.name))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::num);
                    match v {
                        Some(v) => values[wi][mi][set].push(v),
                        None => {
                            eprintln!("selfcheck: {workload}: no metric {}", g.name);
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
        }
    }

    println!(
        "| workload | metric | A median [q1, q3] | B median [q1, q3] | spread A / B | B worse by | bound | ok |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let mut ok = true;
    for (wi, workload) in WORKLOADS.iter().enumerate() {
        for (mi, g) in gated.iter().enumerate() {
            let a = Summary::of(&values[wi][mi][0]);
            let b = Summary::of(&values[wi][mi][1]);
            let drift = worse_by(g, a.median, b.median).max(worse_by(g, b.median, a.median));
            // The spreads are printed and not judged: a quartile of
            // five runs is nearly their range.
            let row_ok = drift <= g.bound;
            ok &= row_ok;
            println!(
                "| {workload} | {} | {:.6} [{:.6}, {:.6}] | {:.6} [{:.6}, {:.6}] | {:.2} % / {:.2} % | {:.2} % | {:.0} % | {} |",
                g.name,
                a.median, a.q1, a.q3,
                b.median, b.q1, b.q3,
                a.spread() * 100.0,
                b.spread() * 100.0,
                drift * 100.0,
                g.bound * 100.0,
                if row_ok { "yes" } else { "NO" }
            );
        }
    }
    println!(
        "# {SETS_OF} runs per set and workload at seeds 1..={SETS_OF}, {DEFAULT_SECONDS} s each; sets interleaved by run"
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("selfcheck: FAIL: two sets of runs of the same code disagree beyond a bound");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_respects_direction() {
        let lower = Gated {
            name: "pass_s".into(),
            higher_is_better: false,
            bound: 0.1,
        };
        let higher = Gated {
            name: "events_per_s".into(),
            higher_is_better: true,
            bound: 0.1,
        };
        assert!((worse_by(&lower, 1.0, 1.2) - 0.2).abs() < 1e-12);
        assert!(worse_by(&lower, 1.0, 0.8) < 0.0);
        assert!((worse_by(&higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worse_by(&higher, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn benchmark_json_gates_the_four_end_to_end_metrics() {
        let names: Vec<String> = gated_metrics().into_iter().map(|g| g.name).collect();
        assert_eq!(names, ["setup_s", "pass_s", "events_per_s", "peak_rss_mb"]);
        assert!(gated_metrics()
            .iter()
            .all(|g| g.bound > 0.0 && g.bound <= 0.25));
    }
}
