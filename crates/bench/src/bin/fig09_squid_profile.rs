//! Figure 9: transactional profile of Squid under the web workload.
//!
//! The event-handler sequences establish one context per hit/miss path;
//! `commHandleWrite` appears under both, with the hit-path share larger
//! than the miss-path share (38.5% vs 11.5% in the paper), and
//! `httpReadReply` only under the miss path.

use whodunit_apps::proxy::{run_proxy, ProxyConfig};
use whodunit_apps::rtconf::RtKind;
use whodunit_bench::{compare, header};
use whodunit_core::cost::CPU_HZ;
use whodunit_core::Runtime;
use whodunit_report::render;

const HIT: &str = "httpAccept -> clientReadRequest -> commHandleWrite";
const MISS: &str =
    "httpAccept -> clientReadRequest -> commConnectHandle -> httpReadReply -> commHandleWrite";

fn main() {
    header(
        "Figure 9",
        "transactional profile of Squid (hit vs miss contexts)",
    );
    let r = run_proxy(ProxyConfig {
        clients: 24,
        duration: 30 * CPU_HZ,
        rt: RtKind::Whodunit,
        ..ProxyConfig::default()
    });
    r.outcome.assert_ok();
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
    let hit = share(HIT);
    let miss = share(MISS);
    println!();
    compare("commHandleWrite via cache-hit ctx", 38.5, hit, "%");
    compare("commHandleWrite via cache-miss ctx", 11.5, miss, "%");
    println!("request hit rate: {:.1}%", r.hit_rate * 100.0);
    assert!(hit > 0.0 && miss > 0.0, "both contexts profiled");
    assert!(hit > miss, "hit-path write dominates (most requests hit)");
    println!("\nWhodunit distinguishes the time spent in commHandleWrite for");
    println!("cache hits vs misses — a regular profiler reports one number.");
    println!("Throughput while profiled: {:.1} Mb/s", r.throughput_mbps);
}
