//! Figure 12: TPC-W throughput (interactions/minute) under the
//! browsing mix, with and without servlet result caching, as a
//! function of concurrent clients.
//!
//! Paper shape: without caching the database CPU saturates around 200
//! clients at a peak of 1184/min; with caching throughput grows almost
//! linearly to ≈450 clients and peaks at 3376/min — close to 3×.

use whodunit_apps::dbserver::Engine;
use whodunit_apps::rtconf::RtKind;
use whodunit_apps::tpcw::{run_tpcw, TpcwConfig};
use whodunit_bench::{compare, header};
use whodunit_core::cost::CPU_HZ;
use whodunit_report::table;

fn sweep(caching: bool, clients: &[u32]) -> Vec<(u32, f64)> {
    clients
        .iter()
        .map(|&n| {
            let r = run_tpcw(TpcwConfig {
                clients: n,
                engine: Engine::MyIsam,
                caching,
                rt: RtKind::None,
                duration: 320 * CPU_HZ,
                warmup: 80 * CPU_HZ,
                ..TpcwConfig::default()
            });
            assert!(r.outcome.is_ok(), "the run ended early: {}", r.outcome);
            (n, r.throughput_per_min)
        })
        .collect()
}

fn main() {
    header(
        "Figure 12",
        "TPC-W throughput vs concurrent clients, with and without caching",
    );
    let clients = [50, 100, 150, 200, 250, 300, 350, 400, 450, 500];
    let original = sweep(false, &clients);
    let cached = sweep(true, &clients);

    let rows: Vec<Vec<String>> = clients
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            vec![
                n.to_string(),
                table::f(original[i].1, 0),
                table::f(cached[i].1, 0),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(&["Clients", "Original tx/min", "Caching tx/min"], &rows)
    );

    let peak_orig = original.iter().map(|&(_, t)| t).fold(0.0, f64::max);
    let peak_cache = cached.iter().map(|&(_, t)| t).fold(0.0, f64::max);
    compare("Peak throughput, original", 1184.0, peak_orig, "tx/min");
    compare("Peak throughput, caching", 3376.0, peak_cache, "tx/min");
    compare(
        "Caching speedup",
        3376.0 / 1184.0,
        peak_cache / peak_orig,
        "x",
    );

    // Knee positions: the first client count achieving ≥95% of peak.
    let knee = |curve: &[(u32, f64)], peak: f64| {
        curve
            .iter()
            .find(|&&(_, t)| t >= 0.95 * peak)
            .map(|&(n, _)| n)
            .unwrap_or(0)
    };
    let k_orig = knee(&original, peak_orig);
    let k_cache = knee(&cached, peak_cache);
    println!("\nSaturation knee: original ≈{k_orig} clients (paper ≈200), caching ≈{k_cache} clients (paper ≈450)");
    assert!(peak_cache > 2.0 * peak_orig, "caching wins by >2x");
    assert!(k_cache > k_orig, "caching moves the knee right");
}
