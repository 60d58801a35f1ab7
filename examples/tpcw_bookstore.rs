//! End-to-end TPC-W bookstore profiling (§8.4, Table 1).
//!
//! Runs the squid → tomcat → mysql assembly under the browsing mix,
//! dumps all three stage profiles, stitches them, and prints MySQL's
//! CPU and crosstalk per TPC-W interaction — resolved across tiers by
//! synopsis chains.
//!
//! Run with: `cargo run --release --example tpcw_bookstore`

use whodunit::apps::dbserver::Engine;
use whodunit::apps::rtconf::RtKind;
use whodunit::apps::tpcw::{run_tpcw, TpcwConfig};
use whodunit::core::cost::CPU_HZ;
use whodunit::core::pipeline::{analyze, PipelineConfig};
use whodunit::report::tpcw::{crosstalk_pairs, table1};
use whodunit::workload::Interaction;

fn label_of(frame: &str) -> Option<String> {
    Interaction::ALL
        .iter()
        .find(|i| i.servlet() == frame)
        .map(|i| i.name().to_owned())
}

fn main() {
    let r = run_tpcw(TpcwConfig {
        clients: 80,
        engine: Engine::MyIsam,
        caching: false,
        rt: RtKind::Whodunit,
        duration: 200 * CPU_HZ,
        warmup: 50 * CPU_HZ,
        ..TpcwConfig::default()
    });
    assert!(r.outcome.is_ok(), "the run ended early: {}", r.outcome);
    let stitched = analyze(r.dumps.clone(), PipelineConfig::default());

    println!("MySQL profile by TPC-W interaction (via stitched synopsis chains):\n");
    let mut rows = table1(&stitched, 2, &|n| label_of(n));
    rows.sort_by(|a, b| b.cpu_pct.partial_cmp(&a.cpu_pct).unwrap());
    for row in &rows {
        println!(
            "  {:<22} {:6.2}% CPU   {:8.2} ms mean crosstalk wait",
            row.interaction, row.cpu_pct, row.crosstalk_ms
        );
    }

    println!("\nWho waits for whom (top crosstalk pairs):");
    for (waiter, holder, ms, n) in crosstalk_pairs(&stitched, 2, &|n| label_of(n))
        .iter()
        .take(6)
    {
        println!("  {waiter:<22} waits for {holder:<22} {ms:8.2} ms mean x{n}");
    }
    println!(
        "\nthroughput {:.0} interactions/min over the measurement window",
        r.throughput_per_min
    );

    // Write the stage dumps for the standalone viewer (§7.1's on-disk
    // profiles): `whodunit-view --shares target/tpcw_profile.json`.
    let path = "target/tpcw_profile.json";
    if std::fs::write(path, whodunit::core::dumpjson::to_json(&r.dumps)).is_ok() {
        println!("stage profiles written to {path} (render with whodunit-view)");
    }
}
