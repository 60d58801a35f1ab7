//! The faultstorm invariants as a test: the `faultstorm` bin keeps the
//! full 120-second storm for manual runs; this suite holds the same
//! assertions on a shorter storm so `cargo test` exercises them on
//! every change.
//!
//! The invariants (see the bin for the long-form rationale):
//! determinism of the whole profile, per-tier profile-mass conservation
//! under faults, partial/corrupt stitching degradation, and crosstalk
//! attribution surviving the storm.

use whodunit_apps::dbserver::Engine;
use whodunit_apps::tpcw::{run_tpcw, TpcwConfig, TpcwReport};
use whodunit_core::cost::CPU_HZ;
use whodunit_core::pipeline::{analyze, PipelineConfig};
use whodunit_sim::{ChannelFaults, ScenarioFaults};

/// A compressed storm: same fault classes as the bin (drops, delays,
/// slowdown window, mid-run crash), sized so the whole suite runs in
/// seconds even unoptimized.
fn storm_config() -> TpcwConfig {
    TpcwConfig {
        clients: 30,
        engine: Engine::MyIsam,
        duration: 60 * CPU_HZ,
        warmup: 15 * CPU_HZ,
        db_timeout: CPU_HZ / 2,
        faults: Some(ScenarioFaults {
            seed: 0xF0057,
            backbone: ChannelFaults {
                drop_p: 0.05,
                delay_p: 0.10,
                delay_cycles: CPU_HZ / 100,
                ..ChannelFaults::default()
            },
            slowdown: Some((20 * CPU_HZ, 30 * CPU_HZ, 3)),
            crash_at: Some(50 * CPU_HZ),
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
        .expect("storm runs with Whodunit installed")
        .borrow();
    w.profiled_contexts()
        .iter()
        .map(|&c| w.cct(c).map_or(0, |t| t.total().cycles))
        .sum()
}

#[test]
fn storm_is_deterministic_and_actually_storms() {
    let r1 = run_tpcw(storm_config());
    let r2 = run_tpcw(storm_config());
    assert_eq!(r1.dumps, r2.dumps, "stage dumps must be bit-identical");
    assert_eq!(
        r1.throughput_per_min.to_bits(),
        r2.throughput_per_min.to_bits()
    );
    assert_eq!(r1.tail.compute_truth, r2.tail.compute_truth);
    assert_eq!(r1.client_errors, r2.client_errors);
    assert_eq!(r1.tail.dropped_msgs, r2.tail.dropped_msgs);
    assert_eq!(r1.app_db_retries, r2.app_db_retries);
    // The invariants below are vacuous unless the storm actually bites.
    assert!(r1.tail.dropped_msgs > 0, "plan dropped messages");
    assert!(r1.app_db_timeouts > 0, "tomcat RPC timeouts fired");
    assert!(r1.app_db_retries > 0, "tomcat resent queries");
    assert!(r1.app_sheds > 0, "tomcat shed after the crash");
    assert!(r1.client_errors > 0, "clients saw classified errors");
}

#[test]
fn profile_mass_is_conserved_per_tier_under_the_storm() {
    let r = run_tpcw(storm_config());
    for (tier, name) in ["squid", "tomcat", "mysql"].iter().enumerate() {
        let mass = profile_mass(&r, tier);
        let truth = r.tail.compute_truth[tier];
        assert_eq!(
            mass, truth,
            "{name}: profiled cycles diverge from ground truth"
        );
    }
}

#[test]
fn stitching_degrades_not_panics_under_missing_and_corrupt_dumps() {
    let r = run_tpcw(storm_config());

    let full = analyze(r.dumps.clone(), PipelineConfig::default());
    assert!(!full.edges.is_empty(), "healthy stitch finds request edges");
    assert!(full.unresolved.is_empty(), "nothing unresolved");

    // Front tier's dump missing: tomcat's remote contexts surface as
    // unresolved edges; mysql→tomcat edges still resolve.
    let partial = analyze(
        vec![r.dumps[1].clone(), r.dumps[2].clone()],
        PipelineConfig::default(),
    );
    assert!(
        !partial.unresolved.is_empty(),
        "missing sender dump yields unresolved edges"
    );
    assert!(!partial.edges.is_empty(), "surviving stages still stitch");

    // A corrupted dump is quarantined with a warning.
    let mut corrupt = r.dumps.clone();
    if let Some(cct) = corrupt[2].ccts.first_mut() {
        if let Some(node) = cct.nodes.get_mut(1) {
            node.parent = None;
        }
    }
    let quarantined = analyze(corrupt, PipelineConfig::default());
    assert!(!quarantined.warnings.is_empty());
    assert!(!quarantined.stage_valid(2), "mysql dump quarantined");
    assert!(
        quarantined.stage_valid(0) && quarantined.stage_valid(1),
        "healthy dumps unaffected"
    );
}

#[test]
fn crosstalk_attribution_survives_the_storm() {
    let r = run_tpcw(storm_config());
    let cross: u64 = r.dumps[2]
        .crosstalk_pairs
        .iter()
        .filter(|p| p.waiter != p.holder)
        .map(|p| p.total_wait)
        .sum();
    assert!(
        cross > 0,
        "cross-context lock waits still attributed at mysql"
    );
}
