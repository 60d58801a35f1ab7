//! Shared-memory transaction flow in an Apache-like server (Figure 8).
//!
//! Runs the httpd model: the listener pushes connections into a shared
//! fd queue whose push/pop critical sections execute on the instruction
//! emulator. Whodunit infers the listener → worker flow from the
//! emulated MOVs (§3) and excludes the memory-allocator pattern.
//!
//! Run with: `cargo run --release --example apache_shm`

use whodunit::apps::httpd::{run_httpd, HttpdConfig};
use whodunit::apps::rtconf::RtKind;
use whodunit::core::cost::CPU_HZ;
use whodunit::core::rt::Runtime;
use whodunit::core::shm::FlowEvent;
use whodunit::report::render;

fn main() {
    let r = run_httpd(HttpdConfig {
        clients: 16,
        workers: 6,
        duration: 8 * CPU_HZ,
        rt: RtKind::Whodunit,
        ..HttpdConfig::default()
    });
    r.outcome.assert_ok();
    let w = r.runtime.whodunit.as_ref().unwrap().borrow();
    println!("{}", render::render_stage(&w.dump().unwrap()));

    let consumed = w
        .flow_log()
        .iter()
        .filter(|e| matches!(e, FlowEvent::Consumed { lock, .. } if *lock == r.fdq_lock))
        .count();
    println!(
        "fd-queue flow: {} consume events — transaction contexts",
        consumed
    );
    println!("handed from the listener to workers through shared memory.");
    println!();
    println!(
        "fd queue flow enabled: {} (transaction flow detected and kept)",
        w.detector().flow_enabled(r.fdq_lock)
    );
    println!(
        "allocator flow enabled: {} (the Figure 3 pattern was excluded; its",
        w.detector().flow_enabled(r.alloc_lock)
    );
    println!("critical sections run natively from then on — the §7.2 bail-out)");
    println!();
    println!(
        "served {} requests on {} connections at {:.1} Mb/s",
        r.reqs, r.conns, r.throughput_mbps
    );
}
