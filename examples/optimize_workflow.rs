//! The §8.4 performance-debugging workflow, end to end:
//!
//! 1. profile the bookstore with Whodunit,
//! 2. read the transactional profile (BestSellers/SearchResult dominate
//!    MySQL; AdminConfirm suffers the worst crosstalk),
//! 3. apply the paper's optimizations (servlet result caching),
//! 4. re-profile and *diff* the MySQL profiles.
//!
//! Run with: `cargo run --release --example optimize_workflow`

use whodunit::apps::dbserver::Engine;
use whodunit::apps::rtconf::RtKind;
use whodunit::apps::tpcw::{run_tpcw, TpcwConfig, TpcwReport};
use whodunit::core::cost::CPU_HZ;
use whodunit::core::pipeline::{analyze, PipelineConfig};
use whodunit::report::diff::{render_diff, DiffRow};
use whodunit::report::tpcw::table1;
use whodunit::workload::Interaction;

fn label_of(frame: &str) -> Option<String> {
    Interaction::ALL
        .iter()
        .find(|i| i.servlet() == frame)
        .map(|i| i.name().to_owned())
}

fn run(caching: bool) -> TpcwReport {
    let r = run_tpcw(TpcwConfig {
        clients: 150,
        engine: Engine::MyIsam,
        caching,
        rt: RtKind::Whodunit,
        duration: 150 * CPU_HZ,
        warmup: 40 * CPU_HZ,
        ..TpcwConfig::default()
    });
    assert!(r.outcome.is_ok(), "the run ended early: {}", r.outcome);
    r
}

fn main() {
    println!("profiling the original configuration…");
    let before = run(false);
    println!(
        "  throughput {:.0}/min; profiling the cached configuration…",
        before.throughput_per_min
    );
    let after = run(true);
    println!("  throughput {:.0}/min\n", after.throughput_per_min);

    // MySQL is stage index 2 in the dumps. Synopsis chains differ
    // between runs, so diff by the stitched interaction labels.
    println!("MySQL profile diff (share of MySQL CPU by interaction):\n");
    let shares = |r: &TpcwReport| {
        let st = analyze(r.dumps.clone(), PipelineConfig::default());
        table1(&st, 2, &|n| label_of(n))
            .into_iter()
            .map(|row| (row.interaction, row.cpu_pct))
            .collect::<std::collections::HashMap<_, _>>()
    };
    let b = shares(&before);
    let a = shares(&after);
    let mut labels: Vec<String> = b.keys().chain(a.keys()).cloned().collect();
    labels.sort();
    labels.dedup();
    let mut rows: Vec<DiffRow> = labels
        .into_iter()
        .map(|ctx| DiffRow {
            before_pct: b.get(&ctx).copied().unwrap_or(0.0),
            after_pct: a.get(&ctx).copied().unwrap_or(0.0),
            ctx,
        })
        .collect();
    rows.sort_by(|x, y| y.delta().abs().partial_cmp(&x.delta().abs()).unwrap());
    print!("{}", render_diff(&rows[..rows.len().min(8)]));

    let speedup = after.throughput_per_min / before.throughput_per_min;
    println!("\nthroughput change at 150 clients: {speedup:.2}x");
    println!("(the heavy read-query contexts shrink; the small queries' shares grow");
    println!(" because the total pie collapsed — exactly Figure 12's mechanism)");
}
