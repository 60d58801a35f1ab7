//! The §4.1 DNS example: hit and miss transactions in an event-driven
//! DNS cache server.
//!
//! "Two different transactions are possible in this application: one
//! corresponding to a cache hit and the other corresponding to a cache
//! miss … two different transaction contexts will be established."
//!
//! Run with: `cargo run --example dns_cache`

use whodunit::apps::dnsd::{run_dnsd, DnsConfig};
use whodunit::apps::rtconf::RtKind;
use whodunit::core::cost::cycles_to_ms;
use whodunit::core::rt::Runtime;
use whodunit::report::render;

fn main() {
    let r = run_dnsd(DnsConfig {
        clients: 8,
        names: 300,
        rt: RtKind::Whodunit,
        ..DnsConfig::default()
    });
    r.outcome.assert_ok();
    let w = r.runtime.whodunit.as_ref().unwrap().borrow();
    println!("DNS server transactional profile:\n");
    for s in render::context_shares(&w.dump().unwrap()) {
        println!("{:6.2}%  {}", s.pct, s.ctx);
    }
    println!();
    println!(
        "{} answers ({} hits / {} misses), mean latency {:.2} ms",
        r.answers,
        r.hits,
        r.misses,
        cycles_to_ms(r.mean_rt as u64)
    );
    println!();
    println!("The miss path's upstream_reply handler runs under the continuation");
    println!("created by forward_query — a second, distinct transaction context.");
}
