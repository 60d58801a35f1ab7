//! Chaos-explorer oracles over every assembly: TPC-W and each zoo
//! member must hold the same invariants — profile mass conservation,
//! honest fault accounting, bounded progress — under clean runs, fault
//! storms, backend crashes, and the planted livelock defect. One test
//! pins the exact verdicts of every assembly under a full storm and
//! under the planted livelock.

use whodunit_apps::chaos::Assembly;
use whodunit_core::cost::CPU_HZ;
use whodunit_core::repro::{ChaosRepro, FaultEntry};

fn base_repro(a: Assembly, seed: u64) -> ChaosRepro {
    let mut r = ChaosRepro {
        seed,
        policy: "fifo".into(),
        workload: a.workload(),
        faults: Vec::new(),
        violation: None,
        window: None,
    };
    r.set_knob("clients", 8);
    r.set_knob("duration", 15 * CPU_HZ);
    r.set_knob("warmup", 4 * CPU_HZ);
    if a == Assembly::Tpcw {
        r.set_knob("images_per_page", 1);
    }
    r
}

/// The channel role behind the entry tier (the one that is not
/// `"front"`).
fn backbone(a: Assembly) -> String {
    let chans = a.space().channels;
    chans.into_iter().find(|c| c != "front").expect("two roles")
}

#[test]
fn clean_scenarios_pass_every_oracle_on_all_topologies() {
    for t in Assembly::ALL {
        let r = base_repro(t, 3);
        let a = t.run(&r);
        assert_eq!(
            a.violations,
            vec![],
            "{}: clean run violates nothing",
            t.name()
        );
        let b = t.run(&r);
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
    for t in Assembly::ALL {
        let mut r = base_repro(t, 7);
        r.faults = vec![
            FaultEntry::Drop {
                chan: "front".into(),
                ppm: 20_000,
            },
            FaultEntry::Dup {
                chan: backbone(t),
                ppm: 30_000,
            },
            FaultEntry::Delay {
                chan: backbone(t),
                ppm: 80_000,
                cycles: CPU_HZ / 100,
            },
        ];
        let res = t.run(&r);
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
    for t in Assembly::ALL {
        let mut r = base_repro(t, 11);
        r.faults = vec![FaultEntry::Crash {
            proc: t.space().crashable[0].clone(),
            at: 8 * CPU_HZ,
        }];
        let res = t.run(&r);
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
    for t in Assembly::ALL {
        let mut r = base_repro(t, 5);
        r.set_knob("livelock_pair", 1);
        r.set_knob("step_budget", 10_000);
        let res = t.run(&r);
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
    fn storm(r: &mut ChaosRepro, a: Assembly) {
        let space = a.space();
        for chan in &space.channels {
            r.faults.push(FaultEntry::Drop {
                chan: chan.clone(),
                ppm: 20_000,
            });
            r.faults.push(FaultEntry::Dup {
                chan: chan.clone(),
                ppm: 30_000,
            });
            r.faults.push(FaultEntry::Delay {
                chan: chan.clone(),
                ppm: 60_000,
                cycles: CPU_HZ / 100,
            });
        }
        let victim = &space.crashable[0];
        r.faults.push(FaultEntry::Slowdown {
            machine: victim.clone(),
            from: 5 * CPU_HZ,
            until: 9 * CPU_HZ,
            factor: 3,
        });
        r.faults.push(FaultEntry::Crash {
            proc: victim.clone(),
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

    let mut got = Vec::new();
    for a in Assembly::ALL {
        let mut r = base_repro(a, 13);
        storm(&mut r, a);
        got.push((format!("{}/storm", a.name()), verdict(a.run(&r))));
        let mut r = base_repro(a, 13);
        livelock(&mut r);
        got.push((format!("{}/livelock", a.name()), verdict(a.run(&r))));
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
        .map(|(n, (fp, k, o))| (n.as_str(), *fp, k.as_slice(), o.as_str()))
        .collect();
    assert_eq!(got, want);
}

/// The role names are frozen: a repro file names them, so a rename
/// would make old repros silently fault-free. Each assembly's surface
/// is pinned here, in the order `space()` lists it.
#[test]
fn space_declares_the_faultable_surface() {
    let want: &[(&str, [&str; 2], &str, u64, u64)] = &[
        ("tpcw", ["db", "front"], "mysql", 60 * CPU_HZ, 150_000),
        ("fanout", ["front", "backbone"], "svc", 30 * CPU_HZ, 100_000),
        ("pubsub", ["front", "backbone"], "sub", 30 * CPU_HZ, 100_000),
        (
            "cachewt",
            ["front", "backbone"],
            "store",
            30 * CPU_HZ,
            100_000,
        ),
    ];
    let got: Vec<_> = Assembly::ALL.iter().map(|a| a.space()).collect();
    assert_eq!(got.len(), want.len());
    for (s, &(name, channels, victim, horizon, ppm)) in got.iter().zip(want) {
        assert_eq!(s.channels, channels, "{name}");
        assert_eq!(s.crashable, [victim], "{name}");
        assert_eq!(s.slowable, [victim], "{name}");
        assert_eq!(s.horizon, horizon, "{name}");
        assert_eq!(s.max_fault_ppm, ppm, "{name}");
        assert_eq!(s.max_delay, CPU_HZ / 50, "{name}");
    }
    let names: Vec<_> = Assembly::ALL.iter().map(|a| a.name()).collect();
    assert_eq!(names, want.iter().map(|w| w.0).collect::<Vec<_>>());
}
