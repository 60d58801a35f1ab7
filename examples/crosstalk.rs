//! Transaction crosstalk (§6): which transaction made mine wait?
//!
//! Two transaction types contend on one lock: a long-running writer
//! (think AdminConfirm) and many short readers. Whodunit attributes
//! each wait to the context holding the lock.
//!
//! Run with: `cargo run --example crosstalk`

use std::cell::RefCell;
use std::rc::Rc;
use whodunit::core::cost::{cycles_to_ms, ms_to_cycles};
use whodunit::core::ids::{LockMode, ProcId};
use whodunit::core::profiler::{Whodunit, WhodunitConfig};
use whodunit::sim::{Op, Sim, SimConfig, ThreadBody, ThreadCx, Wake};
use whodunit_core::frame::FrameId;
use whodunit_core::ids::LockId;
use whodunit_core::rt::Continuation;

/// A looping transaction: dispatch (sets its context), lock, hold,
/// unlock, idle.
struct Txn {
    handler: FrameId,
    lock: LockId,
    mode: LockMode,
    hold: u64,
    idle: u64,
    rounds: u32,
    state: u8,
}

impl ThreadBody for Txn {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, _wake: Wake) -> Op {
        match self.state {
            0 => {
                if self.rounds == 0 {
                    return Op::Exit;
                }
                self.rounds -= 1;
                // Each round is one transaction instance of this type.
                let rt = cx.runtime();
                rt.borrow_mut()
                    .on_resume(cx.me(), Continuation::default(), self.handler);
                cx.set_stack(&[self.handler]);
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
            3 => {
                self.state = 0;
                Op::Sleep(self.idle)
            }
            _ => Op::Exit,
        }
    }
}

fn main() {
    let mut sim = Sim::new(SimConfig::default());
    let m = sim.add_machine(4);
    let w = Rc::new(RefCell::new(Whodunit::new(
        WhodunitConfig::new(ProcId(0), "db"),
        sim.frames().clone(),
    )));
    let p = sim.add_process(w.clone());
    let lock = sim.add_lock();

    let admin = sim.frame("AdminConfirm");
    let reader = sim.frame("BestSellers");
    sim.spawn(
        p,
        m,
        "admin",
        Box::new(Txn {
            handler: admin,
            lock,
            mode: LockMode::Exclusive,
            hold: ms_to_cycles(40.0),
            idle: ms_to_cycles(17.5),
            rounds: 40,
            state: 0,
        }),
    );
    for i in 0..3 {
        sim.spawn(
            p,
            m,
            &format!("reader{i}"),
            Box::new(Txn {
                handler: reader,
                lock,
                mode: LockMode::Shared,
                hold: ms_to_cycles(8.0),
                idle: ms_to_cycles(5.0),
                rounds: 200,
                state: 0,
            }),
        );
    }
    let outcome = sim.run_to_idle();
    outcome.assert_ok();

    let w = w.borrow();
    println!("crosstalk report (who waits for whom):\n");
    let rep = w.crosstalk().report();
    for (waiter, holder, stats) in &rep.pairs {
        println!(
            "  {:<14} waited for {:<14} {:>8.2} ms mean  x{}",
            w.ctx_string(*waiter),
            w.ctx_string(*holder),
            cycles_to_ms(stats.total_wait / stats.count.max(1)),
            stats.count
        );
    }
    println!("\nper-transaction mean wait over ALL lock acquires:");
    for (waiter, stats) in &rep.waiters {
        println!(
            "  {:<14} {:>8.2} ms over {} acquires",
            w.ctx_string(*waiter),
            cycles_to_ms(stats.mean() as u64),
            stats.count
        );
    }
}
