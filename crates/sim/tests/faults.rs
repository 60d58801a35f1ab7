//! Engine-level fault injection and timeout behaviour.
//!
//! These tests drive the public API only: a [`FaultPlan`] installed on
//! a [`Sim`], scripted thread bodies, and the new timed-wait
//! primitives. Everything must be deterministic — several tests run
//! the same configuration twice and require identical traces.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use whodunit_sim::{ChannelFaults, FaultPlan, Msg, Op, Sim, ThreadBody, ThreadCx, Wake};

/// Scripted body: plays a fixed op list, logging each wake.
struct Script {
    ops: VecDeque<Op>,
    log: Rc<RefCell<Vec<String>>>,
}

impl Script {
    fn new(ops: Vec<Op>, log: Rc<RefCell<Vec<String>>>) -> Box<Self> {
        Box::new(Script {
            ops: ops.into(),
            log,
        })
    }
}

impl ThreadBody for Script {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        let entry = match &wake {
            Wake::Start => "start".to_owned(),
            Wake::Done => "done".to_owned(),
            Wake::ComputeDone => format!("computed@{}", cx.now()),
            Wake::LockAcquired { waited } => format!("locked(w={waited})"),
            Wake::CondWoken { waited } => format!("woken(w={waited})"),
            Wake::Received(m) => format!(
                "recv({})@{}",
                m.peek::<u32>().copied().unwrap_or(0),
                cx.now()
            ),
            Wake::Slept => format!("slept@{}", cx.now()),
            Wake::RecvTimedOut => format!("timeout@{}", cx.now()),
            Wake::CondTimedOut { waited } => format!("condtimeout(w={waited})@{}", cx.now()),
        };
        self.log
            .borrow_mut()
            .push(format!("{}:{entry}", cx.thread_name_of_me()));
        self.ops.pop_front().unwrap_or(Op::Exit)
    }
}

trait NameOfMe {
    fn thread_name_of_me(&self) -> String;
}

impl NameOfMe for ThreadCx<'_> {
    fn thread_name_of_me(&self) -> String {
        format!("t{}", self.me().0)
    }
}

fn log() -> Rc<RefCell<Vec<String>>> {
    Rc::new(RefCell::new(Vec::new()))
}

#[test]
fn recv_timeout_expires_when_nothing_arrives() {
    let mut sim = Sim::default();
    let m = sim.add_machine(1);
    let p = sim.add_unprofiled_process();
    let ch = sim.add_channel(0, 0);
    let l = log();
    sim.spawn(
        p,
        m,
        "rx",
        Script::new(vec![Op::RecvTimeout(ch, 5000)], l.clone()),
    );
    assert!(sim.run_to_idle().is_ok());
    assert_eq!(sim.now(), 5000);
    assert!(l.borrow().iter().any(|e| e == "t0:timeout@5000"), "{l:?}");
}

#[test]
fn recv_timeout_delivery_wins_and_deadline_is_inert() {
    let mut sim = Sim::default();
    let m = sim.add_machine(2);
    let p = sim.add_unprofiled_process();
    let ch = sim.add_channel(100, 0);
    let l = log();
    // rx: timed recv (deadline 50_000), then a *second* timed recv on
    // the same channel. The first deadline must not leak into the
    // second wait (epoch guard).
    sim.spawn(
        p,
        m,
        "rx",
        Script::new(
            vec![Op::RecvTimeout(ch, 50_000), Op::RecvTimeout(ch, 200_000)],
            l.clone(),
        ),
    );
    sim.spawn(
        p,
        m,
        "tx",
        Script::new(vec![Op::Send(ch, Msg::new(1u32, 0))], l.clone()),
    );
    assert!(sim.run_to_idle().is_ok());
    let entries = l.borrow();
    assert!(entries.iter().any(|e| e == "t0:recv(1)@100"), "{entries:?}");
    // The second wait must expire at 100 + 200_000, NOT at 50_000.
    assert!(
        entries.iter().any(|e| e == "t0:timeout@200100"),
        "stale deadline fired early: {entries:?}"
    );
    assert!(
        !entries.iter().any(|e| e == "t0:timeout@50000"),
        "{entries:?}"
    );
}

#[test]
fn timed_out_receiver_leaves_queue_late_message_buffers() {
    let mut sim = Sim::default();
    let m = sim.add_machine(2);
    let p = sim.add_unprofiled_process();
    let ch = sim.add_channel(10_000, 0);
    let l = log();
    // rx gives up after 1000 cycles; the message lands at 10_000 and
    // must buffer, not resurrect the abandoned wait.
    sim.spawn(
        p,
        m,
        "rx",
        Script::new(vec![Op::RecvTimeout(ch, 1000)], l.clone()),
    );
    sim.spawn(
        p,
        m,
        "tx",
        Script::new(vec![Op::Send(ch, Msg::new(9u32, 0))], l.clone()),
    );
    assert!(sim.run_to_idle().is_ok());
    let entries = l.borrow();
    assert!(
        entries.iter().any(|e| e == "t0:timeout@1000"),
        "{entries:?}"
    );
    assert!(
        !entries.iter().any(|e| e.starts_with("t0:recv")),
        "{entries:?}"
    );
    assert_eq!(sim.chans.buffered(ch), 1, "late message sits in the buffer");
}

#[test]
fn cond_wait_timeout_reacquires_lock() {
    let mut sim = Sim::default();
    let m = sim.add_machine(1);
    let p = sim.add_unprofiled_process();
    let lk = sim.add_lock();
    let cv = sim.add_cond();
    let l = log();
    sim.spawn(
        p,
        m,
        "waiter",
        Script::new(
            vec![
                Op::Lock(lk, whodunit_core::ids::LockMode::Exclusive),
                Op::CondWaitTimeout(cv, lk, 7000),
                Op::Unlock(lk),
            ],
            l.clone(),
        ),
    );
    assert!(sim.run_to_idle().is_ok());
    let entries = l.borrow();
    assert!(
        entries.iter().any(|e| e == "t0:condtimeout(w=0)@7000"),
        "{entries:?}"
    );
    // The final Unlock succeeded, so the lock was genuinely re-held.
    assert!(entries.iter().any(|e| e == "t0:done"), "{entries:?}");
    assert!(!sim.locks.holds(whodunit_core::ids::ThreadId(0), lk));
}

#[test]
fn cond_notify_beats_timeout() {
    let mut sim = Sim::default();
    let m = sim.add_machine(2);
    let p = sim.add_unprofiled_process();
    let lk = sim.add_lock();
    let cv = sim.add_cond();
    let l = log();
    sim.spawn(
        p,
        m,
        "waiter",
        Script::new(
            vec![
                Op::Lock(lk, whodunit_core::ids::LockMode::Exclusive),
                Op::CondWaitTimeout(cv, lk, 1_000_000),
                Op::Unlock(lk),
            ],
            l.clone(),
        ),
    );
    sim.spawn(
        p,
        m,
        "notifier",
        Script::new(
            vec![
                Op::Compute(10_000),
                Op::Lock(lk, whodunit_core::ids::LockMode::Exclusive),
                Op::Notify(cv, false),
                Op::Unlock(lk),
            ],
            l.clone(),
        ),
    );
    assert!(sim.run_to_idle().is_ok());
    let entries = l.borrow();
    assert!(
        entries.iter().any(|e| e.starts_with("t0:woken")),
        "{entries:?}"
    );
    assert!(
        !entries.iter().any(|e| e.contains("condtimeout")),
        "stale cond deadline fired after notify: {entries:?}"
    );
}

#[test]
fn dropped_message_never_delivers_and_is_counted() {
    let mut sim = Sim::default();
    let m = sim.add_machine(2);
    let p = sim.add_unprofiled_process();
    let ch = sim.add_channel(100, 0);
    sim.set_fault_plan(FaultPlan::new(1).channel_faults(
        ch,
        ChannelFaults {
            drop_p: 1.0,
            ..ChannelFaults::default()
        },
    ));
    let l = log();
    sim.spawn(
        p,
        m,
        "rx",
        Script::new(vec![Op::RecvTimeout(ch, 9000)], l.clone()),
    );
    sim.spawn(
        p,
        m,
        "tx",
        Script::new(vec![Op::Send(ch, Msg::new(1u32, 8))], l.clone()),
    );
    assert!(sim.run_to_idle().is_ok());
    let entries = l.borrow();
    assert!(
        entries.iter().any(|e| e == "t0:timeout@9000"),
        "{entries:?}"
    );
    assert_eq!(sim.chans.dropped(ch), 1);
    assert_eq!(
        sim.chans.msgs_sent(ch),
        1,
        "send-side accounting still runs"
    );
    assert_eq!(sim.chans.buffered(ch), 0);
}

#[test]
fn duplicated_replayable_message_delivers_twice() {
    let mut sim = Sim::default();
    let m = sim.add_machine(2);
    let p = sim.add_unprofiled_process();
    let ch = sim.add_channel(100, 0);
    sim.set_fault_plan(FaultPlan::new(3).channel_faults(
        ch,
        ChannelFaults {
            dup_p: 1.0,
            ..ChannelFaults::default()
        },
    ));
    let l = log();
    sim.spawn(
        p,
        m,
        "rx",
        Script::new(vec![Op::Recv(ch), Op::Recv(ch)], l.clone()),
    );
    sim.spawn(
        p,
        m,
        "tx",
        Script::new(vec![Op::Send(ch, Msg::replayable(4u32, 8))], l.clone()),
    );
    assert!(sim.run_to_idle().is_ok());
    let entries = l.borrow();
    let recvs = entries
        .iter()
        .filter(|e| e.starts_with("t0:recv(4)"))
        .count();
    assert_eq!(recvs, 2, "{entries:?}");
    assert_eq!(sim.chans.duplicated(ch), 1);
}

#[test]
fn non_replayable_message_is_not_duplicated() {
    let mut sim = Sim::default();
    let m = sim.add_machine(2);
    let p = sim.add_unprofiled_process();
    let ch = sim.add_channel(100, 0);
    sim.set_fault_plan(FaultPlan::new(3).channel_faults(
        ch,
        ChannelFaults {
            dup_p: 1.0,
            ..ChannelFaults::default()
        },
    ));
    let l = log();
    sim.spawn(p, m, "rx", Script::new(vec![Op::Recv(ch)], l.clone()));
    sim.spawn(
        p,
        m,
        "tx",
        Script::new(vec![Op::Send(ch, Msg::new(4u32, 8))], l.clone()),
    );
    assert!(sim.run_to_idle().is_ok());
    assert_eq!(sim.chans.duplicated(ch), 0);
    assert_eq!(sim.chans.buffered(ch), 0, "exactly one delivery, consumed");
}

#[test]
fn delay_fault_postpones_delivery() {
    let mut sim = Sim::default();
    let m = sim.add_machine(2);
    let p = sim.add_unprofiled_process();
    let ch = sim.add_channel(100, 0);
    sim.set_fault_plan(FaultPlan::new(5).channel_faults(
        ch,
        ChannelFaults {
            delay_p: 1.0,
            delay_cycles: 40_000,
            ..ChannelFaults::default()
        },
    ));
    let l = log();
    sim.spawn(p, m, "rx", Script::new(vec![Op::Recv(ch)], l.clone()));
    sim.spawn(
        p,
        m,
        "tx",
        Script::new(vec![Op::Send(ch, Msg::new(2u32, 0))], l.clone()),
    );
    assert!(sim.run_to_idle().is_ok());
    let entries = l.borrow();
    assert!(
        entries.iter().any(|e| e == "t0:recv(2)@40100"),
        "{entries:?}"
    );
    assert_eq!(sim.chans.delayed(ch), 1);
}

#[test]
fn slowdown_window_stretches_wall_clock_not_truth() {
    fn run(with_slowdown: bool) -> (u64, u64) {
        let mut sim = Sim::default();
        let m = sim.add_machine(1);
        let p = sim.add_unprofiled_process();
        if with_slowdown {
            sim.set_fault_plan(FaultPlan::new(0).slowdown(m, 0, u64::MAX, 4));
        }
        let l = log();
        sim.spawn(p, m, "t", Script::new(vec![Op::Compute(100_000)], l));
        assert!(sim.run_to_idle().is_ok());
        (sim.now(), sim.proc_compute_cycles(p))
    }
    let (fast, truth_fast) = run(false);
    let (slow, truth_slow) = run(true);
    assert_eq!(fast, 100_000);
    assert_eq!(slow, 400_000, "4x slowdown quadruples wall time");
    assert_eq!(truth_fast, 100_000);
    assert_eq!(truth_slow, 100_000, "ground truth unchanged by slowdown");
}

#[test]
fn crash_halts_threads_and_releases_locks() {
    let mut sim = Sim::default();
    let m = sim.add_machine(2);
    let victim = sim.add_unprofiled_process();
    let survivor = sim.add_unprofiled_process();
    let lk = sim.add_lock();
    let l = log();
    // Victim grabs the lock and computes forever.
    sim.spawn(
        victim,
        m,
        "v",
        Script::new(
            vec![
                Op::Lock(lk, whodunit_core::ids::LockMode::Exclusive),
                Op::Compute(100_000_000),
                Op::Unlock(lk),
            ],
            l.clone(),
        ),
    );
    // Survivor wants the same lock.
    sim.spawn(
        survivor,
        m,
        "s",
        Script::new(
            vec![
                Op::Compute(1000),
                Op::Lock(lk, whodunit_core::ids::LockMode::Exclusive),
                Op::Unlock(lk),
            ],
            l.clone(),
        ),
    );
    sim.set_fault_plan(FaultPlan::new(0).crash(victim, 50_000));
    assert!(sim.run_to_idle().is_ok());
    assert!(sim.proc_crashed(victim));
    assert!(!sim.proc_crashed(survivor));
    let entries = l.borrow();
    assert!(
        entries.iter().any(|e| e.starts_with("t1:locked")),
        "survivor got the crashed holder's lock: {entries:?}"
    );
    assert!(
        !entries.iter().any(|e| e.starts_with("t0:computed")),
        "victim's burst never completes: {entries:?}"
    );
    assert!(
        sim.now() < 100_000_000,
        "crashed compute is abandoned, not simulated to completion"
    );
}

#[test]
fn message_to_crashed_process_buffers_harmlessly() {
    let mut sim = Sim::default();
    let m = sim.add_machine(2);
    let origin = sim.add_unprofiled_process();
    let client = sim.add_unprofiled_process();
    let ch = sim.add_channel(100, 0);
    let l = log();
    // Origin would answer requests, but crashes at t=10.
    sim.spawn(origin, m, "o", Script::new(vec![Op::Recv(ch)], l.clone()));
    sim.spawn(
        client,
        m,
        "c",
        Script::new(
            vec![Op::Compute(1000), Op::Send(ch, Msg::new(1u32, 0))],
            l.clone(),
        ),
    );
    sim.set_fault_plan(FaultPlan::new(0).crash(origin, 10));
    assert!(sim.run_to_idle().is_ok());
    let entries = l.borrow();
    assert!(
        !entries.iter().any(|e| e.starts_with("t0:recv")),
        "dead receiver must not consume: {entries:?}"
    );
    assert_eq!(sim.chans.buffered(ch), 1);
}

#[test]
fn faulted_run_is_bit_deterministic() {
    fn run() -> Vec<String> {
        let mut sim = Sim::default();
        let m = sim.add_machine(2);
        let p = sim.add_unprofiled_process();
        let ch = sim.add_channel(100, 1);
        sim.set_fault_plan(FaultPlan::new(0xBEEF).channel_faults(
            ch,
            ChannelFaults {
                drop_p: 0.4,
                dup_p: 0.3,
                delay_p: 0.3,
                delay_cycles: 5_000,
            },
        ));
        let l = log();
        let mut rx_ops = Vec::new();
        let mut tx_ops = Vec::new();
        for i in 0..20u32 {
            rx_ops.push(Op::RecvTimeout(ch, 3_000));
            tx_ops.push(Op::Send(ch, Msg::replayable(i, 16)));
            tx_ops.push(Op::Compute(500));
        }
        sim.spawn(p, m, "rx", Script::new(rx_ops, l.clone()));
        sim.spawn(p, m, "tx", Script::new(tx_ops, l.clone()));
        assert!(sim.run_to_idle().is_ok());
        let mut v = l.borrow().clone();
        v.push(format!(
            "drops={} dups={} delays={} now={}",
            sim.chans.dropped(ch),
            sim.chans.duplicated(ch),
            sim.chans.delayed(ch),
            sim.now()
        ));
        v
    }
    assert_eq!(run(), run());
}
