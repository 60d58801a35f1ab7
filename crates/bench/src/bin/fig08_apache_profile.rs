//! Figure 8: transactional profile of Apache under the web workload.
//!
//! The listener thread's `apr_socket_accept`/`ap_queue_push` path and
//! the worker threads' `ap_queue_pop` → `ap_process_connection` →
//! `sendfile` path are connected by a transaction-context edge that
//! Whodunit establishes by detecting flow through the shared fd queue
//! (the paper reports listener ≈2.4% and `ap_process_connection`
//! ≈22.7% of Apache's profile; the worker side dominates).

use whodunit_apps::httpd::{run_httpd, HttpdConfig};
use whodunit_apps::rtconf::RtKind;
use whodunit_bench::{compare, header};
use whodunit_core::cost::CPU_HZ;
use whodunit_core::shm::FlowEvent;
use whodunit_core::Runtime;
use whodunit_report::render;

fn main() {
    header(
        "Figure 8",
        "transactional profile of Apache (listener -> worker flow via shared memory)",
    );
    let r = run_httpd(HttpdConfig {
        clients: 24,
        workers: 8,
        duration: 30 * CPU_HZ,
        rt: RtKind::Whodunit,
        ..HttpdConfig::default()
    });
    assert!(r.outcome.is_ok(), "the run ended early: {}", r.outcome);
    let w = r
        .runtime
        .whodunit
        .as_ref()
        .expect("whodunit installed")
        .borrow();
    let dump = w.dump().expect("profile dumped");

    println!("{}", render::render_stage(&dump));

    // The dashed transaction edge of Figure 8: flow detected through
    // the fd queue from the listener context into the workers.
    let consumed = w
        .flow_log()
        .iter()
        .filter(|e| matches!(e, FlowEvent::Consumed { lock, .. } if *lock == r.fdq_lock))
        .count();
    println!("fd-queue consume events (transaction-context hand-offs): {consumed}");
    assert!(consumed > 50, "flow detected repeatedly");
    assert!(
        !w.detector().flow_enabled(r.alloc_lock),
        "the memory allocator is excluded from flow"
    );

    // Profile share comparison: listener accept path vs worker
    // processing path.
    let mut accept_pct = 0.0;
    let mut process_pct = 0.0;
    let mut total = 0u64;
    let mut per: Vec<(String, u64)> = Vec::new();
    for c in &dump.ccts {
        let cct = dump.rebuild_cct(c).expect("profiler-produced dump is well-formed");
        for id in cct.node_ids() {
            if let Some(f) = cct.frame(id) {
                let name = dump.frames[f.0 as usize].to_string();
                let m = cct.metrics(id);
                total += m.samples;
                per.push((name, m.samples));
            }
        }
    }
    for (name, samples) in per {
        let pct = samples as f64 * 100.0 / total.max(1) as f64;
        if name == "apr_socket_accept" || name == "ap_queue_push" {
            accept_pct += pct;
        }
        if name == "ap_process_connection" || name == "sendfile" {
            process_pct += pct;
        }
    }
    compare("listener accept+push share", 2.4, accept_pct, "%");
    compare(
        "worker process+sendfile share",
        22.7 + 70.0,
        process_pct,
        "%",
    );
    println!("\n(The paper's figure shows only a portion of the profile; the");
    println!("worker serving path dominating the listener path is the shape.)");
    assert!(
        process_pct > 10.0 * accept_pct,
        "workers dominate the profile"
    );
    println!(
        "Throughput while profiled: {:.1} Mb/s over {} connections",
        r.throughput_mbps, r.conns
    );
}
