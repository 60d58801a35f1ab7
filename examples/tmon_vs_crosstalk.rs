//! Why crosstalk beats plain lock-wait measurement (§6, §10).
//!
//! Runs the same TPC-W database workload twice: once under a
//! Tmon-style profiler (per-thread lock waiting times, as in Ji,
//! Felten & Li) and once under Whodunit. Tmon's report shows only that
//! some executor threads waited — every thread in the pool looks alike
//! and nothing says *what* waited or *why*. Whodunit's crosstalk names
//! the transactions on both sides.
//!
//! Run with: `cargo run --release --example tmon_vs_crosstalk`

use whodunit::apps::dbserver::Engine;
use whodunit::apps::rtconf::RtKind;
use whodunit::apps::tpcw::{run_tpcw, TpcwConfig};
use whodunit::core::cost::{cycles_to_ms, CPU_HZ};
use whodunit::core::pipeline::{analyze, PipelineConfig};
use whodunit::report::tpcw::crosstalk_pairs;
use whodunit::workload::Interaction;

fn cfg(rt: RtKind) -> TpcwConfig {
    TpcwConfig {
        clients: 100,
        engine: Engine::MyIsam,
        caching: false,
        rt,
        duration: 150 * CPU_HZ,
        warmup: 30 * CPU_HZ,
        ..TpcwConfig::default()
    }
}

fn label_of(frame: &str) -> Option<String> {
    Interaction::ALL
        .iter()
        .find(|i| i.servlet() == frame)
        .map(|i| i.name().to_owned())
}

fn main() {
    // --- Tmon view: a database-like contention scene with one writer
    // and two readers sharing a lock. Tmon's entire output is the
    // per-thread wait table below. ---
    println!("Tmon view (per-thread lock waits):");
    println!("  (thread)            waits      total wait");
    {
        use std::cell::RefCell;
        use std::rc::Rc;
        use whodunit::baselines::TmonRuntime;
        use whodunit::sim::{Op, Sim, ThreadBody, ThreadCx, Wake};
        use whodunit_core::ids::LockMode;

        // A focused two-transaction demo with known thread roles.
        struct Txn {
            lock: whodunit_core::ids::LockId,
            mode: LockMode,
            hold: u64,
            idle: u64,
            rounds: u32,
            state: u8,
        }
        impl ThreadBody for Txn {
            fn resume(&mut self, _cx: &mut ThreadCx<'_>, _w: Wake) -> Op {
                match self.state {
                    0 => {
                        if self.rounds == 0 {
                            return Op::Exit;
                        }
                        self.rounds -= 1;
                        self.state = 1;
                        Op::Lock(self.lock, self.mode)
                    }
                    1 => {
                        self.state = 2;
                        Op::Compute(self.hold)
                    }
                    2 => {
                        self.state = 3;
                        Op::Unlock(self.lock)
                    }
                    _ => {
                        self.state = 0;
                        Op::Sleep(self.idle)
                    }
                }
            }
        }
        let mut sim = Sim::default();
        let m = sim.add_machine(4);
        let tmon = Rc::new(RefCell::new(TmonRuntime::new()));
        let p = sim.add_process(tmon.clone());
        let lock = sim.add_lock();
        for (i, (mode, hold, idle)) in [
            (LockMode::Exclusive, 96_000_000u64, 42_000_000u64),
            (LockMode::Shared, 19_200_000, 12_000_000),
            (LockMode::Shared, 19_200_000, 12_000_000),
        ]
        .iter()
        .enumerate()
        {
            sim.spawn(
                p,
                m,
                &format!("exec{i}"),
                Box::new(Txn {
                    lock,
                    mode: *mode,
                    hold: *hold,
                    idle: *idle,
                    rounds: 60,
                    state: 0,
                }),
            );
        }
        let outcome = sim.run_to_idle();
        assert!(outcome.is_ok(), "the run ended early: {outcome}");
        for (t, count, total) in tmon.borrow().report() {
            println!(
                "  {:<18} {:>6}   {:>9.1} ms",
                format!("{t}"),
                count,
                cycles_to_ms(total)
            );
        }
    }
    println!("  → threads waited, but on behalf of WHAT? Tmon cannot say.\n");

    // --- Whodunit view ---
    let r = run_tpcw(cfg(RtKind::Whodunit));
    let stitched = analyze(r.dumps.clone(), PipelineConfig::default());
    println!("Whodunit crosstalk view (TPC-W browsing mix, 100 clients):");
    for (waiter, holder, ms, n) in crosstalk_pairs(&stitched, 2, &|n| label_of(n))
        .iter()
        .take(5)
    {
        println!("  {waiter:<22} waits for {holder:<22} {ms:8.2} ms mean x{n}");
    }
    println!("  → the interference is attributed to transaction types across tiers.");
}
