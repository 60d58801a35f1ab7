//! Figure 10: transactional profile of Haboob under the web workload.
//!
//! Two transaction contexts reach WriteStage: the cache-hit path and
//! the miss path via MissStage and the File I/O Stage. The paper
//! reports 37.65% of Haboob's CPU in WriteStage via the hit path and
//! 46.58% via the miss path.

use whodunit_apps::rtconf::RtKind;
use whodunit_apps::sedasrv::{run_haboob, HaboobConfig};
use whodunit_bench::{compare, header};
use whodunit_core::cost::CPU_HZ;
use whodunit_core::Runtime;
use whodunit_report::render;

const HIT: &str = "ListenStage -> HttpServer -> ReadStage -> HttpRecv -> CacheStage -> WriteStage";
const MISS: &str = "ListenStage -> HttpServer -> ReadStage -> HttpRecv -> CacheStage -> MissStage -> FileIoStage -> WriteStage";

fn main() {
    header(
        "Figure 10",
        "transactional profile of Haboob (SEDA stages, hit vs miss paths)",
    );
    let r = run_haboob(HaboobConfig {
        clients: 24,
        duration: 30 * CPU_HZ,
        rt: RtKind::Whodunit,
        ..HaboobConfig::default()
    });
    assert!(r.outcome.is_ok(), "the run ended early: {}", r.outcome);
    let w = r
        .runtime
        .whodunit
        .as_ref()
        .expect("whodunit installed")
        .borrow();
    let dump = w.dump().expect("profile dumped");
    let shares = render::context_shares(&dump);
    for s in &shares {
        println!("{:6.2}%  {}", s.pct, s.ctx);
    }
    let share = |ctx: &str| {
        shares
            .iter()
            .find(|s| s.ctx == ctx)
            .map(|s| s.pct)
            .unwrap_or(0.0)
    };
    // The WriteStage exclusive share within each path's context: the
    // context share is dominated by its last stage (WriteStage) since
    // write costs dwarf the pass-through stages.
    let hit = share(HIT);
    let miss = share(MISS);
    println!();
    compare("WriteStage via cache-hit path", 37.65, hit, "%");
    compare("WriteStage via miss path", 46.58, miss, "%");
    println!("request hit rate: {:.1}%", r.hit_rate * 100.0);
    assert!(hit > 5.0 && miss > 5.0, "both paths carry substantial CPU");
    println!("\nWhodunit separates WriteStage's CPU by the path that reached it;");
    println!("a regular profiler reports a single WriteStage number.");
    println!("Throughput while profiled: {:.1} Mb/s", r.throughput_mbps);
}
