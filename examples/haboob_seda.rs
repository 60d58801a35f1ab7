//! SEDA-stage transactional profiling of a Haboob-like server (Fig 10).
//!
//! Requests traverse ListenStage → … → CacheStage and then either go
//! straight to WriteStage (hit) or detour through MissStage and the
//! File I/O Stage. Stage-queue elements carry transaction contexts, so
//! WriteStage's cost is reported per path.
//!
//! Run with: `cargo run --release --example haboob_seda`

use whodunit::apps::rtconf::RtKind;
use whodunit::apps::sedasrv::{run_haboob, HaboobConfig};
use whodunit::core::cost::CPU_HZ;
use whodunit::core::rt::Runtime;
use whodunit::report::render;

fn main() {
    let r = run_haboob(HaboobConfig {
        clients: 16,
        duration: 8 * CPU_HZ,
        rt: RtKind::Whodunit,
        ..HaboobConfig::default()
    });
    r.outcome.assert_ok();
    let w = r.runtime.whodunit.as_ref().unwrap().borrow();
    let dump = w.dump().unwrap();
    println!("Haboob transactional profile (stage-path contexts):\n");
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
}
