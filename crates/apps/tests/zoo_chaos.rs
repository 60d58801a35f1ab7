//! Chaos-explorer oracles over the topology zoo: every zoo member
//! must hold the same invariants the TPC-W assembly does — profile
//! mass conservation, honest fault accounting, bounded progress —
//! under clean runs, fault storms, backend crashes, and the planted
//! livelock defect. One test pins the exact verdicts of the TPC-W
//! assembly and every zoo member under a full storm and under the
//! planted livelock.

use whodunit_apps::zoo::{run_zoo_scenario, zoo_space, zoo_workload, Topology, ZOO_HORIZON};
use whodunit_core::cost::CPU_HZ;
use whodunit_core::repro::{ChaosRepro, FaultEntry};

fn base_repro(seed: u64) -> ChaosRepro {
    let mut r = ChaosRepro {
        seed,
        policy: "fifo".into(),
        workload: zoo_workload(),
        faults: Vec::new(),
        violation: None,
        window: None,
    };
    r.set_knob("clients", 8);
    r.set_knob("duration", 15 * CPU_HZ);
    r.set_knob("warmup", 4 * CPU_HZ);
    r
}

#[test]
fn clean_scenarios_pass_every_oracle_on_all_topologies() {
    for t in Topology::ALL {
        let r = base_repro(3);
        let a = run_zoo_scenario(t, &r);
        assert_eq!(
            a.violations,
            vec![],
            "{}: clean run violates nothing",
            t.name()
        );
        let b = run_zoo_scenario(t, &r);
        assert_eq!(
            a.fingerprint,
            b.fingerprint,
            "{}: bit-identical replay",
            t.name()
        );
    }
}

#[test]
fn fault_storms_conserve_profile_mass_on_all_topologies() {
    for t in Topology::ALL {
        let mut r = base_repro(7);
        r.faults = vec![
            FaultEntry::Drop {
                chan: "front".into(),
                ppm: 20_000,
            },
            FaultEntry::Dup {
                chan: "backbone".into(),
                ppm: 30_000,
            },
            FaultEntry::Delay {
                chan: "backbone".into(),
                ppm: 80_000,
                cycles: CPU_HZ / 100,
            },
        ];
        let res = run_zoo_scenario(t, &r);
        assert_eq!(
            res.violations,
            vec![],
            "{}: mass conservation and fault accounting hold under storm",
            t.name()
        );
        let (dropped, duped, delayed) = res.faults_seen;
        assert!(
            dropped + duped + delayed > 0,
            "{}: the storm actually touched the wire",
            t.name()
        );
    }
}

#[test]
fn backend_crash_degrades_without_oracle_violations() {
    // The crashable backend dies mid-run; RPC timeouts turn the loss
    // into client-visible errors instead of a stalled simulation, and
    // every oracle still holds.
    for t in Topology::ALL {
        let mut r = base_repro(11);
        let role = match t {
            Topology::Fanout => "svc",
            Topology::PubSub => "sub",
            Topology::CacheWt => "store",
        };
        r.faults = vec![FaultEntry::Crash {
            proc: role.into(),
            at: 8 * CPU_HZ,
        }];
        let res = run_zoo_scenario(t, &r);
        assert_eq!(
            res.violations,
            vec![],
            "{}: crash run stays clean",
            t.name()
        );
        assert!(
            !res.outcome.contains("deadlock"),
            "{}: timeouts prevent a stall, got {}",
            t.name(),
            res.outcome
        );
    }
}

#[test]
fn planted_livelock_is_caught_on_every_topology() {
    for t in Topology::ALL {
        let mut r = base_repro(5);
        r.set_knob("livelock_pair", 1);
        r.set_knob("step_budget", 10_000);
        let res = run_zoo_scenario(t, &r);
        assert!(
            res.has_violation("progress"),
            "{}: got {:?}",
            t.name(),
            res.violations
        );
        assert!(
            res.outcome.contains("livelock"),
            "{}: outcome {}",
            t.name(),
            res.outcome
        );
    }
}

/// One repro per assembly with every fault class on both channel roles
/// plus a crash and a slowdown of the victim, and one with the planted
/// livelock pair: `(assembly, storm or livelock)` → `(fingerprint,
/// violation kinds, outcome)`. Role names, fault-roll order and spawn
/// order all feed these values, so a harness change that moves any of
/// them shows here.
#[test]
fn every_assembly_replays_its_pinned_verdicts() {
    use whodunit_apps::chaos::{default_workload, run_scenario};

    fn storm(r: &mut ChaosRepro, chans: [&str; 2], victim: &str) {
        for chan in chans {
            r.faults.push(FaultEntry::Drop {
                chan: chan.into(),
                ppm: 20_000,
            });
            r.faults.push(FaultEntry::Dup {
                chan: chan.into(),
                ppm: 30_000,
            });
            r.faults.push(FaultEntry::Delay {
                chan: chan.into(),
                ppm: 60_000,
                cycles: CPU_HZ / 100,
            });
        }
        r.faults.push(FaultEntry::Slowdown {
            machine: victim.into(),
            from: 5 * CPU_HZ,
            until: 9 * CPU_HZ,
            factor: 3,
        });
        r.faults.push(FaultEntry::Crash {
            proc: victim.into(),
            at: 11 * CPU_HZ,
        });
    }
    fn livelock(r: &mut ChaosRepro) {
        r.set_knob("livelock_pair", 1);
        r.set_knob("step_budget", 10_000);
    }
    fn verdict(res: whodunit_apps::chaos::ScenarioResult) -> (u64, Vec<&'static str>, String) {
        let kinds = res.violations.iter().map(|v| v.kind()).collect();
        (res.fingerprint, kinds, res.outcome)
    }

    let mut tpcw = base_repro(13);
    tpcw.workload = default_workload();
    tpcw.set_knob("clients", 8);
    tpcw.set_knob("duration", 15 * CPU_HZ);
    tpcw.set_knob("warmup", 4 * CPU_HZ);
    tpcw.set_knob("images_per_page", 1);

    let mut got = Vec::new();
    let mut r = tpcw.clone();
    storm(&mut r, ["front", "db"], "mysql");
    got.push(("tpcw/storm", verdict(run_scenario(&r))));
    let mut r = tpcw;
    livelock(&mut r);
    got.push(("tpcw/livelock", verdict(run_scenario(&r))));
    for (t, storm_name, livelock_name) in [
        (Topology::Fanout, "fanout/storm", "fanout/livelock"),
        (Topology::PubSub, "pubsub/storm", "pubsub/livelock"),
        (Topology::CacheWt, "cachewt/storm", "cachewt/livelock"),
    ] {
        let mut r = base_repro(13);
        storm(&mut r, ["front", "backbone"], &zoo_space(t).crashable[0]);
        got.push((storm_name, verdict(run_zoo_scenario(t, &r))));
        let mut r = base_repro(13);
        livelock(&mut r);
        got.push((livelock_name, verdict(run_zoo_scenario(t, &r))));
    }

    let spin = "livelock at t=0: 10001 zero-progress resumes; spinning: ";
    let want: &[(&str, u64, &[&str], &str)] = &[
        ("tpcw/storm", 0x403b_e538_0dbd_2338, &[], "reached limit"),
        (
            "tpcw/livelock",
            0x0cb3_76f5_fe8d_33dd,
            &["progress"],
            &format!(
                "{spin}pingpong1(t201) x4901, pingpong0(t200) x4900, db_exec0(t0) x1, \
                 db_exec1(t1) x1, db_exec2(t2) x1, db_exec3(t3) x1, db_exec4(t4) x1, \
                 db_exec5(t5) x1"
            ),
        ),
        ("fanout/storm", 0xa9d7_9677_f456_76ed, &[], "reached limit"),
        (
            "fanout/livelock",
            0x405c_85a0_f750_51e4,
            &["progress"],
            &format!(
                "{spin}pingpong0(t22) x4990, pingpong1(t23) x4989, gw0(t0) x1, gw1(t1) x1, \
                 gw2(t2) x1, gw3(t3) x1, gw4(t4) x1, gw5(t5) x1"
            ),
        ),
        ("pubsub/storm", 0x0ba5_c881_8540_deb3, &[], "reached limit"),
        (
            "pubsub/livelock",
            0x4c3e_fc6a_2878_0bc2,
            &["progress"],
            &format!(
                "{spin}pingpong1(t21) x4991, pingpong0(t20) x4990, broker0(t0) x1, \
                 broker1(t1) x1, broker2(t2) x1, broker3(t3) x1, broker4(t4) x1, \
                 broker5(t5) x1"
            ),
        ),
        ("cachewt/storm", 0x9996_3996_704d_b9b6, &[], "reached limit"),
        (
            "cachewt/livelock",
            0x8cd3_2497_f2c2_d303,
            &["progress"],
            &format!(
                "{spin}pingpong1(t25) x4989, pingpong0(t24) x4988, front0(t0) x1, \
                 front1(t1) x1, front2(t2) x1, front3(t3) x1, front4(t4) x1, \
                 front5(t5) x1"
            ),
        ),
    ];
    let got: Vec<_> = got
        .iter()
        .map(|(n, (fp, k, o))| (*n, *fp, k.as_slice(), o.as_str()))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn zoo_space_declares_the_faultable_surface() {
    for t in Topology::ALL {
        let s = zoo_space(t);
        assert_eq!(s.channels, vec!["front".to_string(), "backbone".into()]);
        assert_eq!(s.crashable.len(), 1);
        assert_eq!(s.slowable, s.crashable);
        assert_eq!(s.horizon, ZOO_HORIZON);
    }
}
