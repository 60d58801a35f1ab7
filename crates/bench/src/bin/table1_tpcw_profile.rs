//! Table 1: MySQL CPU profile (%) and mean crosstalk waiting times for
//! the TPC-W transactions under the browsing mix with 100 concurrent
//! clients.
//!
//! The measured columns come from the Whodunit profile: per-interaction
//! CPU shares from the per-context CCT sample counts at the MySQL
//! stage, crosstalk means from the lock-wait attribution — both
//! resolved to interaction names by post-mortem stitching of the three
//! stage dumps (squid → tomcat → mysql synopsis chains).

use whodunit_apps::dbserver::Engine;
use whodunit_apps::rtconf::RtKind;
use whodunit_apps::tpcw::{run_tpcw, TpcwConfig};
use whodunit_bench::header;
use whodunit_core::cost::CPU_HZ;
use whodunit_core::pipeline::{analyze, PipelineConfig};
use whodunit_report::table;
use whodunit_report::tpcw::{crosstalk_pairs, table1};
use whodunit_workload::Interaction;

/// Paper Table 1 values: (interaction, CPU %, mean crosstalk ms).
const PAPER: [(&str, f64, f64); 13] = [
    ("AdminConfirm", 0.82, 93.76),
    ("AdminRequest", 0.00, 6.68),
    ("BestSellers", 51.50, 22.16),
    ("BuyConfirm", 0.04, 68.55),
    ("BuyRequest", 0.03, 0.11),
    ("CustomerRegistration", 0.00, 0.01),
    ("Home", 0.57, 1.51),
    ("NewProducts", 3.29, 1.59),
    ("OrderDisplay", 0.01, 0.09),
    ("ProductDetail", 0.22, 0.66),
    ("SearchRequest", 0.16, 1.15),
    ("SearchResult", 43.28, 5.52),
    ("ShoppingCart", 0.07, 0.86),
];

fn label_of(frame: &str) -> Option<String> {
    Interaction::ALL
        .iter()
        .find(|i| i.servlet() == frame)
        .map(|i| i.name().to_owned())
}

fn main() {
    header(
        "Table 1",
        "MySQL CPU profile (%) and mean crosstalk wait (ms), browsing mix, 100 clients",
    );
    let r = run_tpcw(TpcwConfig {
        clients: 100,
        engine: Engine::MyIsam,
        caching: false,
        rt: RtKind::Whodunit,
        duration: 500 * CPU_HZ,
        warmup: 100 * CPU_HZ,
        ..TpcwConfig::default()
    });
    r.tail.outcome.assert_ok();
    assert_eq!(r.dumps.len(), 3, "three profiled stages dumped");
    let stitched = analyze(r.dumps.clone(), PipelineConfig::default());
    let rows = table1(&stitched, 2, &|n| label_of(n));

    let mut out_rows = Vec::new();
    for (name, paper_cpu, paper_xt) in PAPER {
        let row = rows.iter().find(|r| r.interaction == name);
        let (cpu, xt) = row
            .map(|r| (r.cpu_pct, r.crosstalk_ms))
            .unwrap_or((0.0, 0.0));
        out_rows.push(vec![
            name.to_owned(),
            table::f(paper_cpu, 2),
            table::f(cpu, 2),
            table::f(paper_xt, 2),
            table::f(xt, 2),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "Transaction",
                "CPU% paper",
                "CPU% meas",
                "XT ms paper",
                "XT ms meas"
            ],
            &out_rows
        )
    );

    // Shape checks the paper's analysis depends on.
    let get = |n: &str| rows.iter().find(|r| r.interaction == n);
    let bs = get("BestSellers").expect("BestSellers profiled");
    let sr = get("SearchResult").expect("SearchResult profiled");
    let ac = get("AdminConfirm");
    println!(
        "BestSellers + SearchResult CPU share: {:.1}%",
        bs.cpu_pct + sr.cpu_pct
    );
    assert!(
        bs.cpu_pct + sr.cpu_pct > 70.0,
        "BestSellers+SearchResult dominate MySQL CPU"
    );
    if let Some(ac) = ac {
        let max_xt = rows.iter().map(|r| r.crosstalk_ms).fold(0.0, f64::max);
        println!(
            "AdminConfirm crosstalk: {:.2} ms (max across interactions: {:.2} ms)",
            ac.crosstalk_ms, max_xt
        );
        assert!(
            ac.crosstalk_ms >= max_xt * 0.999,
            "AdminConfirm has the largest mean crosstalk wait"
        );
    }
    println!("Throughput: {:.0} interactions/min", r.throughput_per_min);

    // §6 presents crosstalk as ordered pairs: who waits for whom.
    println!("\nTop crosstalk pairs (waiter <- holder, mean wait):");
    for (waiter, holder, ms, n) in crosstalk_pairs(&stitched, 2, &|n| label_of(n))
        .iter()
        .take(8)
    {
        println!("  {waiter:<22} waits for {holder:<22} {ms:9.2} ms  x{n}");
    }
}
