//! §9.3: Whodunit's overhead on Squid and Haboob.
//!
//! Paper: Squid 262.27 → 247.85 Mb/s (5.5%); Haboob 31.16 → 29.84 Mb/s
//! (4.2%).

use whodunit_apps::proxy::{run_proxy, ProxyConfig};
use whodunit_apps::rtconf::RtKind;
use whodunit_apps::sedasrv::{run_haboob, HaboobConfig};
use whodunit_bench::{compare, header};
use whodunit_core::cost::CPU_HZ;

fn main() {
    header(
        "Section 9.3",
        "Squid and Haboob peak throughput, profiling disabled vs Whodunit",
    );
    let squid = |rt| {
        let r = run_proxy(ProxyConfig {
            clients: 28,
            duration: 25 * CPU_HZ,
            rt,
            ..ProxyConfig::default()
        });
        r.outcome.assert_ok();
        r.throughput_mbps
    };
    let sq_base = squid(RtKind::None);
    let sq_prof = squid(RtKind::Whodunit);
    compare("Squid profiling disabled", 262.27, sq_base, "Mb/s");
    compare("Squid under Whodunit", 247.85, sq_prof, "Mb/s");
    let sq_oh = 100.0 * (1.0 - sq_prof / sq_base);
    compare("Squid overhead", 5.5, sq_oh, "%");

    let haboob = |rt| {
        let r = run_haboob(HaboobConfig {
            clients: 28,
            duration: 25 * CPU_HZ,
            rt,
            ..HaboobConfig::default()
        });
        r.outcome.assert_ok();
        r.throughput_mbps
    };
    let hb_base = haboob(RtKind::None);
    let hb_prof = haboob(RtKind::Whodunit);
    println!();
    compare("Haboob profiling disabled", 31.16, hb_base, "Mb/s");
    compare("Haboob under Whodunit", 29.84, hb_prof, "Mb/s");
    let hb_oh = 100.0 * (1.0 - hb_prof / hb_base);
    compare("Haboob overhead", 4.2, hb_oh, "%");

    assert!(sq_prof < sq_base && hb_prof < hb_base);
    assert!(sq_oh < 12.0 && hb_oh < 12.0);
}
