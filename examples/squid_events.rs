//! Event-driven transactional profiling of a Squid-like proxy (Fig 9).
//!
//! Cache hits and misses execute different event-handler sequences, so
//! `commHandleWrite` shows up under two transaction contexts with
//! separate costs — a distinction no ordinary profiler makes.
//!
//! Run with: `cargo run --release --example squid_events`

use whodunit::apps::proxy::{run_proxy, ProxyConfig};
use whodunit::apps::rtconf::RtKind;
use whodunit::core::cost::CPU_HZ;
use whodunit::core::rt::Runtime;
use whodunit::report::render;

fn main() {
    let r = run_proxy(ProxyConfig {
        clients: 16,
        duration: 8 * CPU_HZ,
        rt: RtKind::Whodunit,
        ..ProxyConfig::default()
    });
    assert!(r.outcome.is_ok(), "the run ended early: {}", r.outcome);
    let w = r.runtime.whodunit.as_ref().unwrap().borrow();
    let dump = w.dump().unwrap();
    println!("Squid transactional profile (event-handler contexts):\n");
    for s in render::context_shares(&dump) {
        println!("{:6.2}%  {}", s.pct, s.ctx);
    }
    println!();
    println!(
        "hit rate {:.1}%, {:.1} Mb/s, {} requests",
        r.hit_rate * 100.0,
        r.throughput_mbps,
        r.reqs
    );
    println!();
    println!("commHandleWrite appears once under the cache-hit context and once");
    println!("under the cache-miss context — Whodunit separates the two costs.");
}
