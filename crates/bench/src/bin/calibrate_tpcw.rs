//! Calibration sweep for the TPC-W experiments (not a paper artifact).

use whodunit_apps::dbserver::Engine;
use whodunit_apps::rtconf::RtKind;
use whodunit_apps::tpcw::{run_tpcw, TpcwConfig};
use whodunit_core::cost::CPU_HZ;
use whodunit_workload::Interaction;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let caching = args.iter().any(|a| a == "--caching");
    let clients: Vec<u32> = if args.iter().any(|a| a == "--full") {
        vec![50, 100, 150, 200, 250, 300, 350, 400, 450, 500]
    } else {
        vec![50, 100, 200, 300]
    };
    for n in clients {
        let t0 = std::time::Instant::now();
        let r = run_tpcw(TpcwConfig {
            clients: n,
            caching,
            engine: Engine::MyIsam,
            rt: RtKind::None,
            duration: 260 * CPU_HZ,
            warmup: 80 * CPU_HZ,
            ..TpcwConfig::default()
        });
        r.tail.outcome.assert_ok();
        let ac = r
            .rt_ms
            .get(&Interaction::AdminConfirm)
            .copied()
            .unwrap_or(0.0);
        let bs = r
            .rt_ms
            .get(&Interaction::BestSellers)
            .copied()
            .unwrap_or(0.0);
        let sr = r
            .rt_ms
            .get(&Interaction::SearchResult)
            .copied()
            .unwrap_or(0.0);
        println!(
            "clients={n:4} tput={:7.1}/min AC={ac:8.1}ms BS={bs:8.1}ms SR={sr:8.1}ms hits={} wall={:.1}s",
            r.throughput_per_min,
            r.cache_hits,
            t0.elapsed().as_secs_f64()
        );
    }
}
