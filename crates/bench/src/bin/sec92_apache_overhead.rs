//! §9.2: Whodunit's overhead on Apache from critical-section emulation.
//!
//! The workload repeatedly opens fresh connections (each crossing the
//! fd queue, forcing emulation of `ap_queue_push`/`ap_queue_pop`).
//! Paper: 393.64 Mb/s unprofiled → 384.58 Mb/s profiled, a 2.3%
//! overhead, kept small by the translation cache.

use whodunit_apps::httpd::{run_httpd, HttpdConfig};
use whodunit_apps::rtconf::RtKind;
use whodunit_bench::{compare, header};
use whodunit_core::cost::CPU_HZ;

fn run(rt: RtKind) -> (f64, u64) {
    let r = run_httpd(HttpdConfig {
        clients: 32,
        workers: 8,
        duration: 30 * CPU_HZ,
        rt,
        ..HttpdConfig::default()
    });
    assert!(r.outcome.is_ok(), "the run ended early: {}", r.outcome);
    (r.throughput_mbps, r.guest_cycles)
}

fn main() {
    header(
        "Section 9.2",
        "Apache peak throughput, normal vs profiled with Whodunit",
    );
    let (base, base_guest) = run(RtKind::None);
    let (prof, prof_guest) = run(RtKind::Whodunit);
    compare("Apache normal execution", 393.64, base, "Mb/s");
    compare("Apache under Whodunit", 384.58, prof, "Mb/s");
    let oh = 100.0 * (1.0 - prof / base);
    compare("overhead", 2.3, oh, "%");
    println!(
        "guest (critical-section) cycles: direct {base_guest} vs emulated {prof_guest} \
         ({:.1}x — the cost Table 3 measures per section)",
        prof_guest as f64 / base_guest.max(1) as f64
    );
    assert!(prof < base, "profiling costs something");
    assert!(oh < 10.0, "overhead stays single-digit");
}
