//! Figure 11: average response time of the AdminConfirm, BestSellers
//! and SearchResult transactions vs concurrent clients, original
//! versus optimized.
//!
//! Two optimizations, as in §8.4:
//! - AdminConfirm: MyISAM table locks → InnoDB row locks (9–72%
//!   response-time reduction in the paper);
//! - BestSellers/SearchResult: 30 s servlet result caching.

use whodunit_apps::dbserver::Engine;
use whodunit_apps::rtconf::RtKind;
use whodunit_apps::tpcw::{run_tpcw, TpcwConfig};
use whodunit_bench::header;
use whodunit_core::cost::CPU_HZ;
use whodunit_report::table;
use whodunit_workload::Interaction;

fn run(clients: u32, engine: Engine, caching: bool) -> std::collections::HashMap<Interaction, f64> {
    let r = run_tpcw(TpcwConfig {
        clients,
        engine,
        caching,
        rt: RtKind::None,
        duration: 320 * CPU_HZ,
        warmup: 80 * CPU_HZ,
        ..TpcwConfig::default()
    });
    r.tail.outcome.assert_ok();
    r.rt_ms
}

fn main() {
    header(
        "Figure 11",
        "Avg response time (ms): AdminConfirm (MyISAM vs InnoDB), BestSellers & SearchResult (no caching vs caching)",
    );
    let clients = [50, 100, 150, 200, 250, 300, 350, 400, 450, 500];
    let mut rows = Vec::new();
    let mut ac_reductions = Vec::new();
    for &n in &clients {
        let orig = run(n, Engine::MyIsam, false);
        let inno = run(n, Engine::InnoDb, false);
        let cache = run(n, Engine::MyIsam, true);
        let g = |m: &std::collections::HashMap<Interaction, f64>, i: Interaction| {
            m.get(&i).copied().unwrap_or(0.0)
        };
        let ac_o = g(&orig, Interaction::AdminConfirm);
        let ac_i = g(&inno, Interaction::AdminConfirm);
        if ac_o > 0.0 && ac_i > 0.0 {
            ac_reductions.push((n, 100.0 * (1.0 - ac_i / ac_o)));
        }
        rows.push(vec![
            n.to_string(),
            table::f(ac_o, 0),
            table::f(ac_i, 0),
            table::f(g(&orig, Interaction::BestSellers), 0),
            table::f(g(&cache, Interaction::BestSellers), 0),
            table::f(g(&orig, Interaction::SearchResult), 0),
            table::f(g(&cache, Interaction::SearchResult), 0),
        ]);
    }
    println!(
        "{}",
        table::render(
            &[
                "Clients",
                "AC orig",
                "AC InnoDB",
                "BS orig",
                "BS cached",
                "SR orig",
                "SR cached",
            ],
            &rows
        )
    );
    println!("Paper at 100 clients: AdminConfirm 640 → 550 ms (−14%); reductions range 9–72%.");
    println!("Measured AdminConfirm reductions (%):");
    for (n, red) in &ac_reductions {
        println!("  {n:>4} clients: {red:5.1}%");
    }
    // Shape checks: caching helps BestSellers/SearchResult at moderate
    // load; InnoDB reduces AdminConfirm response time at saturation.
    let bs_o: f64 = rows[1][3].parse().unwrap();
    let bs_c: f64 = rows[1][4].parse().unwrap();
    assert!(bs_c < bs_o, "caching reduces BestSellers RT at 100 clients");
    let mean_red: f64 =
        ac_reductions.iter().map(|&(_, r)| r).sum::<f64>() / ac_reductions.len().max(1) as f64;
    println!("Mean AdminConfirm reduction: {mean_red:.1}% (paper: 9–72%)");
}
