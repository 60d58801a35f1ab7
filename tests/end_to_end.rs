//! Cross-crate integration tests: the full Whodunit pipeline from
//! simulated applications through profiling to post-mortem stitching.

use whodunit::apps::chaos::Assembly;
use whodunit::apps::dbserver::Engine;
use whodunit::apps::httpd::{run_httpd, HttpdConfig};
use whodunit::apps::proxy::{run_proxy, ProxyConfig};
use whodunit::apps::rtconf::RtKind;
use whodunit::apps::sedasrv::{run_haboob, HaboobConfig};
use whodunit::apps::tpcw::{run_tpcw, TpcwConfig};
use whodunit::core::cost::CPU_HZ;
use whodunit::core::dumpjson;
use whodunit::core::pipeline::{analyze, PipelineConfig};
use whodunit::core::repro::{repro_from_json, repro_to_json, ChaosRepro, FaultEntry};
use whodunit::core::rt::Runtime;
use whodunit::report::{render, tpcw};
use whodunit::sim::fault::ChannelFaults;
use whodunit::sim::ScenarioFaults;
use whodunit::workload::Interaction;

fn label_of(frame: &str) -> Option<String> {
    Interaction::ALL
        .iter()
        .find(|i| i.servlet() == frame)
        .map(|i| i.name().to_owned())
}

#[test]
fn tpcw_profiles_stitch_and_label_interactions() {
    let r = run_tpcw(TpcwConfig {
        clients: 60,
        engine: Engine::MyIsam,
        caching: false,
        rt: RtKind::Whodunit,
        duration: 150 * CPU_HZ,
        warmup: 40 * CPU_HZ,
        ..TpcwConfig::default()
    });
    assert_eq!(r.dumps.len(), 3);

    // The dumps survive a JSON round trip (the on-disk format).
    let j = dumpjson::to_json(&r.dumps);
    let dumps = dumpjson::from_json(&j).expect("profiles parse back");
    let stitched = analyze(dumps, PipelineConfig::default());

    // Table 1 labels resolve across tiers.
    let rows = tpcw::table1(&stitched, 2, &|n| label_of(n));
    assert!(rows.len() >= 6, "rows: {rows:?}");
    let total: f64 = rows.iter().map(|r| r.cpu_pct).sum();
    assert!(
        total > 95.0,
        "labeled contexts cover MySQL CPU: {total:.1}%"
    );

    // BestSellers dominates, matching the ground truth the simulator
    // tracked independently of the profiler.
    let bs_profile = rows
        .iter()
        .find(|r| r.interaction == "BestSellers")
        .map(|r| r.cpu_pct)
        .unwrap_or(0.0);
    let truth_total: u64 = r.db_cpu_truth.values().sum();
    let bs_truth = *r.db_cpu_truth.get(&Interaction::BestSellers).unwrap_or(&0) as f64 * 100.0
        / truth_total as f64;
    assert!(
        (bs_profile - bs_truth).abs() < 6.0,
        "profiler ({bs_profile:.1}%) matches ground truth ({bs_truth:.1}%)"
    );

    // Request edges connect the three tiers.
    let edges = &stitched.edges;
    assert!(
        edges.iter().any(|e| e.from_stage == 0 && e.to_stage == 1),
        "squid -> tomcat edges"
    );
    assert!(
        edges.iter().any(|e| e.from_stage == 1 && e.to_stage == 2),
        "tomcat -> mysql edges"
    );
}

#[test]
fn innodb_reduces_admin_confirm_response_time() {
    let run = |engine| {
        run_tpcw(TpcwConfig {
            clients: 100,
            engine,
            caching: false,
            rt: RtKind::None,
            // AdminConfirm is 0.09% of the mix; a long window is needed
            // for it to occur (deterministic given the fixed seed).
            duration: 450 * CPU_HZ,
            warmup: 50 * CPU_HZ,
            ..TpcwConfig::default()
        })
    };
    let myisam = run(Engine::MyIsam);
    let innodb = run(Engine::InnoDb);
    let ac_m = myisam
        .rt_ms
        .get(&Interaction::AdminConfirm)
        .copied()
        .unwrap_or(0.0);
    let ac_i = innodb
        .rt_ms
        .get(&Interaction::AdminConfirm)
        .copied()
        .unwrap_or(0.0);
    assert!(
        ac_m > 0.0 && ac_i > 0.0,
        "AdminConfirm sampled in both runs"
    );
    assert!(
        ac_i < ac_m,
        "row locking reduces AdminConfirm RT: {ac_i:.0} vs {ac_m:.0} ms"
    );
}

#[test]
fn all_four_runtimes_drive_every_app() {
    for rt in [
        RtKind::None,
        RtKind::Csprof,
        RtKind::Whodunit,
        RtKind::Gprof,
    ] {
        let h = run_httpd(HttpdConfig {
            clients: 6,
            workers: 3,
            duration: 2 * CPU_HZ,
            rt,
            ..HttpdConfig::default()
        });
        assert!(h.reqs > 10, "{rt:?} httpd reqs {}", h.reqs);
        let p = run_proxy(ProxyConfig {
            clients: 6,
            duration: 2 * CPU_HZ,
            rt,
            ..ProxyConfig::default()
        });
        assert!(p.reqs > 10, "{rt:?} proxy reqs {}", p.reqs);
        let s = run_haboob(HaboobConfig {
            clients: 6,
            duration: 2 * CPU_HZ,
            rt,
            ..HaboobConfig::default()
        });
        assert!(s.reqs > 10, "{rt:?} haboob reqs {}", s.reqs);
    }
}

#[test]
fn profiler_overhead_ordering_matches_table2() {
    let tput = |rt| {
        run_tpcw(TpcwConfig {
            clients: 200,
            engine: Engine::MyIsam,
            caching: false,
            rt,
            duration: 120 * CPU_HZ,
            warmup: 40 * CPU_HZ,
            ..TpcwConfig::default()
        })
        .throughput_per_min
    };
    let none = tput(RtKind::None);
    let cs = tput(RtKind::Csprof);
    let who = tput(RtKind::Whodunit);
    let gp = tput(RtKind::Gprof);
    assert!(none >= cs * 0.995, "none {none:.0} >= csprof {cs:.0}");
    assert!(cs >= who * 0.98, "whodunit close to csprof");
    assert!(who > gp * 1.1, "gprof at least 10% behind whodunit");
}

#[test]
fn figure8_profile_renders_with_flow_context() {
    let r = run_httpd(HttpdConfig {
        clients: 8,
        workers: 4,
        duration: 3 * CPU_HZ,
        rt: RtKind::Whodunit,
        ..HttpdConfig::default()
    });
    let w = r.runtime.whodunit.as_ref().unwrap().borrow();
    let dump = w.dump().unwrap();
    let text = render::render_stage(&dump);
    assert!(text.contains("ap_process_connection"));
    assert!(text.contains("sendfile"));
    assert!(
        text.contains("ap_queue_push"),
        "flow context visible: {text}"
    );
    let dot = render::render_dot(&dump);
    assert!(dot.contains("digraph"));
}

#[test]
fn faulty_tpcw_still_stitches_end_to_end() {
    // A lossy wire between the tiers: the profile must stay
    // stitchable and the tiers connected. (Edge-for-edge agreement
    // with the resolver the pipeline replaced is `parallel_diff`'s
    // faulty matrix.)
    let r = run_tpcw(TpcwConfig {
        clients: 24,
        duration: 60 * CPU_HZ,
        warmup: 15 * CPU_HZ,
        faults: Some(ScenarioFaults {
            seed: 0xbad,
            backbone: ChannelFaults {
                drop_p: 0.04,
                dup_p: 0.02,
                delay_p: 0.06,
                delay_cycles: CPU_HZ / 100,
            },
            front: ChannelFaults {
                drop_p: 0.01,
                ..Default::default()
            },
            ..Default::default()
        }),
        step_budget: Some(5_000_000),
        ..TpcwConfig::default()
    });
    assert_eq!(r.dumps.len(), 3);
    assert!(
        r.tail.dropped_msgs + r.tail.duplicated_msgs + r.tail.delayed_msgs > 0,
        "fault plan fired on the wire"
    );
    // The degraded stack still completes work.
    assert!(r.throughput_per_min > 0.0);

    let rep = analyze(r.dumps, PipelineConfig::default());
    assert!(!rep.profiles.is_empty(), "faulty run still profiles");

    // Edges still connect squid -> tomcat -> mysql despite the faults.
    assert!(rep.edges.iter().any(|e| e.from_stage == 0 && e.to_stage == 1));
    assert!(rep.edges.iter().any(|e| e.from_stage == 1 && e.to_stage == 2));
}

#[test]
fn chaos_repro_fixture_replays_bit_identically() {
    // A chaos-explorer style repro fixture (core/repro.rs), exercised
    // through its serialized form the way a replay from disk would be.
    let mut fixture = ChaosRepro {
        seed: 42,
        policy: "perturb:42:250000".to_owned(),
        workload: Assembly::Tpcw.workload(),
        faults: vec![
            FaultEntry::Drop {
                chan: "db".into(),
                ppm: 30_000,
            },
            FaultEntry::Delay {
                chan: "db".into(),
                ppm: 50_000,
                cycles: CPU_HZ / 100,
            },
            FaultEntry::Dup {
                chan: "front".into(),
                ppm: 10_000,
            },
        ],
        ..ChaosRepro::default()
    };
    fixture.set_knob("clients", 16);
    fixture.set_knob("duration", 25 * CPU_HZ);
    fixture.set_knob("warmup", 5 * CPU_HZ);

    // Round-trip through the on-disk format, then replay twice.
    let parsed = repro_from_json(&repro_to_json(&fixture)).expect("fixture parses back");
    let a = Assembly::Tpcw.run(&parsed);
    let b = Assembly::Tpcw.run(&parsed);
    assert_eq!(
        a.fingerprint, b.fingerprint,
        "replay is bit-identical: {} vs {}",
        a.outcome, b.outcome
    );
    assert!(
        a.violations.is_empty(),
        "no oracle violations on the healthy stack: {:?}",
        a.violations
    );
    let (drops, dups, delays) = a.faults_seen;
    assert!(drops + dups + delays > 0, "repro's fault plan fired");
}

#[test]
fn whodunit_contexts_survive_persistent_connections() {
    // Squid under long-lived connections: loop pruning keeps the
    // context set small even after thousands of requests.
    let r = run_proxy(ProxyConfig {
        clients: 10,
        duration: 6 * CPU_HZ,
        rt: RtKind::Whodunit,
        ..ProxyConfig::default()
    });
    let w = r.runtime.whodunit.as_ref().unwrap().borrow();
    assert!(r.reqs > 1000);
    assert!(
        w.profiled_contexts().len() <= 8,
        "contexts stay bounded: {}",
        w.profiled_contexts().len()
    );
}
