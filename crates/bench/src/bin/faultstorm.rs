//! faultstorm: the 3-tier TPC-W assembly under a seeded fault plan —
//! dropped and delayed tomcat→mysql requests, a MySQL machine
//! slowdown window, and a mid-run MySQL crash — validating that the
//! transactional profile stays *sound* when the run itself does not:
//!
//! 1. **Determinism** — two runs with the same seed produce bit-
//!    identical stage dumps, error counts, and ground-truth cycles.
//! 2. **Profile-mass conservation** — per profiled tier, the cycles
//!    recorded across every transaction context's CCT sum exactly to
//!    the simulator's ground-truth compute cycles, faults and all.
//! 3. **Partial stitching** — stitching with the front tier's dump
//!    missing reports unresolved request edges (no panic), and a
//!    corrupted dump is quarantined with a warning while the healthy
//!    stages still stitch.
//! 4. **Crosstalk attribution** — lock crosstalk between distinct
//!    transaction contexts is still recorded at MySQL.

use whodunit_apps::dbserver::Engine;
use whodunit_apps::tpcw::{run_tpcw, TpcwConfig, TpcwReport};
use whodunit_bench::header;
use whodunit_core::cost::CPU_HZ;
use whodunit_core::pipeline::{analyze, PipelineConfig};
use whodunit_report::render::render_stitched_text;
use whodunit_sim::{ChannelFaults, ScenarioFaults};

fn storm_config() -> TpcwConfig {
    TpcwConfig {
        clients: 40,
        engine: Engine::MyIsam,
        duration: 120 * CPU_HZ,
        warmup: 30 * CPU_HZ,
        db_timeout: CPU_HZ / 2,
        faults: Some(ScenarioFaults {
            seed: 0xF0057,
            backbone: ChannelFaults {
                drop_p: 0.05,
                delay_p: 0.10,
                delay_cycles: CPU_HZ / 100, // 10 ms
                ..ChannelFaults::default()
            },
            slowdown: Some((40 * CPU_HZ, 60 * CPU_HZ, 3)),
            crash_at: Some(100 * CPU_HZ),
            ..ScenarioFaults::default()
        }),
        ..TpcwConfig::default()
    }
}

/// Sum of CCT cycles across every profiled context of one tier.
fn profile_mass(r: &TpcwReport, tier: usize) -> u64 {
    let w = r.runtimes[tier]
        .whodunit
        .as_ref()
        .expect("faultstorm runs with Whodunit installed")
        .borrow();
    w.profiled_contexts()
        .iter()
        .map(|&c| w.cct(c).map_or(0, |t| t.total().cycles))
        .sum()
}

fn main() {
    header(
        "faultstorm",
        "TPC-W under drops, delays, slowdown, and a DB crash",
    );

    let r1 = run_tpcw(storm_config());
    let r2 = run_tpcw(storm_config());
    r1.tail.outcome.assert_ok();

    // 1. Determinism: the whole profile, not just summary scalars.
    assert_eq!(r1.dumps, r2.dumps, "stage dumps must be bit-identical");
    assert_eq!(
        r1.throughput_per_min.to_bits(),
        r2.throughput_per_min.to_bits()
    );
    assert_eq!(r1.tail.compute_truth, r2.tail.compute_truth);
    assert_eq!(r1.client_errors, r2.client_errors);
    assert_eq!(r1.tail.dropped_msgs, r2.tail.dropped_msgs);
    assert_eq!(r1.app_db_retries, r2.app_db_retries);
    println!("determinism          two seeded runs are bit-identical");

    // The storm actually stormed.
    assert!(r1.tail.dropped_msgs > 0, "plan dropped messages");
    assert!(r1.app_db_timeouts > 0, "tomcat RPC timeouts fired");
    assert!(r1.app_db_retries > 0, "tomcat resent queries");
    assert!(r1.app_sheds > 0, "tomcat shed after the crash");
    assert!(r1.client_errors > 0, "clients saw classified errors");
    println!(
        "storm                dropped={} timeouts={} retries={} sheds={} client_errors={}",
        r1.tail.dropped_msgs, r1.app_db_timeouts, r1.app_db_retries, r1.app_sheds, r1.client_errors
    );
    println!(
        "throughput           {:.0} interactions/min despite the storm",
        r1.throughput_per_min
    );

    // 2. Profile-mass conservation per tier.
    for (tier, name) in ["squid", "tomcat", "mysql"].iter().enumerate() {
        let mass = profile_mass(&r1, tier);
        let truth = r1.tail.compute_truth[tier];
        assert_eq!(
            mass, truth,
            "{name}: profiled cycles diverge from ground truth"
        );
        println!("mass conservation    {name:<7} {mass} cycles == simulator truth");
    }

    // 3a. Full stitch first: three healthy dumps, resolvable edges.
    let full = analyze(r1.dumps.clone(), PipelineConfig::default());
    let full_edges = full.edges.len();
    assert!(full_edges > 0, "healthy stitch finds request edges");
    assert!(full.unresolved.is_empty(), "nothing unresolved");

    // 3b. The front tier's host "crashed before dumping": stitch only
    // tomcat + mysql. Tomcat's remote contexts were minted by squid,
    // whose dump is missing — they must surface as unresolved edges,
    // not a panic, and mysql→tomcat edges must still resolve.
    let partial = analyze(
        vec![r1.dumps[1].clone(), r1.dumps[2].clone()],
        PipelineConfig::default(),
    );
    let unresolved = &partial.unresolved;
    assert!(
        !unresolved.is_empty(),
        "missing sender dump yields unresolved edges"
    );
    assert!(!partial.edges.is_empty(), "surviving stages still stitch");
    println!(
        "partial stitch       {} unresolved edges with squid's dump missing ({} resolved)",
        unresolved.len(),
        partial.edges.len()
    );
    let rendered = render_stitched_text(&partial);
    assert!(
        rendered.contains("unresolved"),
        "report renders degradation"
    );

    // 3c. A corrupted dump is quarantined with a warning; the rest
    // still stitches.
    let mut corrupt = r1.dumps.clone();
    if let Some(cct) = corrupt[2].ccts.first_mut() {
        if let Some(node) = cct.nodes.get_mut(1) {
            node.parent = None; // non-root node without a parent
        }
    }
    let quarantined = analyze(corrupt, PipelineConfig::default());
    assert!(
        !quarantined.warnings.is_empty(),
        "corrupt dump produces a warning"
    );
    assert!(!quarantined.stage_valid(2), "mysql dump quarantined");
    assert!(
        quarantined.stage_valid(0) && quarantined.stage_valid(1),
        "healthy dumps unaffected"
    );
    println!(
        "corrupt dump         quarantined with {} warning(s), healthy stages kept",
        quarantined.warnings.len()
    );

    // 4. Crosstalk attribution survives the storm: MySQL still records
    // lock waits between *distinct* transaction contexts.
    let pairs = &r1.dumps[2].crosstalk_pairs;
    let cross: u64 = pairs
        .iter()
        .filter(|p| p.waiter != p.holder)
        .map(|p| p.total_wait)
        .sum();
    assert!(
        cross > 0,
        "cross-context lock waits still attributed at mysql"
    );
    println!(
        "crosstalk            {} pair rows, {} cross-context wait cycles",
        pairs.len(),
        cross
    );

    println!("\nfaultstorm: all invariants held");
}
