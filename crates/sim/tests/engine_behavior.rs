//! Behavioural tests of the simulation engine: ordering, fairness,
//! hook charging, and failure cases.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use whodunit_core::frame::FrameId;
use whodunit_core::ids::{LockMode, ProcId, ThreadId};
use whodunit_core::rt::Runtime;
use whodunit_sim::{Msg, Op, Sim, SimConfig, ThreadBody, ThreadCx, Wake};

struct Script {
    ops: VecDeque<Op>,
    log: Rc<RefCell<Vec<String>>>,
}

impl Script {
    fn new(ops: Vec<Op>, log: &Rc<RefCell<Vec<String>>>) -> Box<Self> {
        Box::new(Script {
            ops: ops.into(),
            log: log.clone(),
        })
    }
}

impl ThreadBody for Script {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        let entry = match &wake {
            Wake::Start => "start".into(),
            Wake::Done => "done".into(),
            Wake::ComputeDone => format!("computed@{}", cx.now()),
            Wake::LockAcquired { waited } => format!("locked(w={waited})"),
            Wake::CondWoken { waited } => format!("woken(w={waited})"),
            Wake::Received(m) => format!("recv({})", m.peek::<u32>().copied().unwrap_or(0)),
            Wake::Slept => format!("slept@{}", cx.now()),
            Wake::RecvTimedOut => format!("recvtimeout@{}", cx.now()),
            Wake::CondTimedOut { waited } => format!("condtimeout(w={waited})"),
        };
        self.log.borrow_mut().push(format!("{}:{entry}", cx.me()));
        self.ops.pop_front().unwrap_or(Op::Exit)
    }
}

fn log() -> Rc<RefCell<Vec<String>>> {
    Rc::new(RefCell::new(Vec::new()))
}

#[test]
fn messages_on_one_channel_preserve_order() {
    let mut sim = Sim::default();
    let m = sim.add_machine(2);
    let p = sim.add_unprofiled_process();
    let ch = sim.add_channel(1000, 1);
    let l = log();
    sim.spawn(
        p,
        m,
        "tx",
        Script::new(
            vec![
                Op::Send(ch, Msg::new(1u32, 10)),
                Op::Send(ch, Msg::new(2u32, 10)),
                Op::Send(ch, Msg::new(3u32, 10)),
            ],
            &l,
        ),
    );
    sim.spawn(
        p,
        m,
        "rx",
        Script::new(vec![Op::Recv(ch), Op::Recv(ch), Op::Recv(ch)], &l),
    );
    assert!(sim.run_to_idle().is_ok());
    let got: Vec<String> = l
        .borrow()
        .iter()
        .filter(|e| e.contains("recv"))
        .cloned()
        .collect();
    assert_eq!(got, vec!["t1:recv(1)", "t1:recv(2)", "t1:recv(3)"]);
}

#[test]
fn multiple_receivers_share_a_channel_fifo() {
    // MPMC work queue: waiting receivers are served in wait order.
    let mut sim = Sim::default();
    let m = sim.add_machine(4);
    let p = sim.add_unprofiled_process();
    let ch = sim.add_channel(0, 0);
    let l = log();
    for i in 0..3 {
        sim.spawn(p, m, &format!("rx{i}"), Script::new(vec![Op::Recv(ch)], &l));
    }
    sim.spawn(
        p,
        m,
        "tx",
        Script::new(
            vec![
                Op::Send(ch, Msg::new(10u32, 1)),
                Op::Send(ch, Msg::new(20u32, 1)),
                Op::Send(ch, Msg::new(30u32, 1)),
            ],
            &l,
        ),
    );
    assert!(sim.run_to_idle().is_ok());
    let recvs: Vec<String> = l
        .borrow()
        .iter()
        .filter(|e| e.contains("recv"))
        .cloned()
        .collect();
    assert_eq!(recvs.len(), 3);
    // Receivers registered in spawn order get messages in send order.
    assert_eq!(recvs[0], "t0:recv(10)");
    assert_eq!(recvs[1], "t1:recv(20)");
    assert_eq!(recvs[2], "t2:recv(30)");
}

#[test]
fn round_robin_shares_a_core_fairly() {
    // Two equal computes on one core finish at (roughly) the same time,
    // not one after the other — the quantum interleaves them.
    let mut sim = Sim::new(SimConfig { quantum: 1000 });
    let m = sim.add_machine(1);
    let p = sim.add_unprofiled_process();
    let l = log();
    sim.spawn(p, m, "a", Script::new(vec![Op::Compute(10_000)], &l));
    sim.spawn(p, m, "b", Script::new(vec![Op::Compute(10_000)], &l));
    assert!(sim.run_to_idle().is_ok());
    let done: Vec<u64> = l
        .borrow()
        .iter()
        .filter_map(|e| e.split('@').nth(1).map(|t| t.parse().unwrap()))
        .collect();
    assert_eq!(done.len(), 2);
    let gap = done[1] - done[0];
    assert!(gap <= 1000, "interleaved completion, gap {gap}");
    assert_eq!(done[1], 20_000);
}

#[test]
fn pending_overhead_is_charged_on_next_compute() {
    struct Charger {
        phase: u8,
    }
    impl ThreadBody for Charger {
        fn resume(&mut self, cx: &mut ThreadCx<'_>, _wake: Wake) -> Op {
            match self.phase {
                0 => {
                    self.phase = 1;
                    cx.charge(5_000);
                    Op::Compute(1_000)
                }
                _ => Op::Exit,
            }
        }
    }
    let mut sim = Sim::default();
    let m = sim.add_machine(1);
    let p = sim.add_unprofiled_process();
    sim.spawn(p, m, "t", Box::new(Charger { phase: 0 }));
    assert!(sim.run_to_idle().is_ok());
    assert_eq!(sim.now(), 6_000, "compute extended by the charged overhead");
}

#[test]
fn gprof_counts_calls_through_the_engine() {
    use whodunit_baselines::GprofRuntime;
    let mut sim = Sim::default();
    let m = sim.add_machine(1);
    let rt = Rc::new(RefCell::new(GprofRuntime::default()));
    let p = sim.add_process(rt.clone());

    struct Body {
        f: FrameId,
        inner: FrameId,
        phase: u8,
    }
    impl ThreadBody for Body {
        fn resume(&mut self, cx: &mut ThreadCx<'_>, _wake: Wake) -> Op {
            match self.phase {
                0 => {
                    self.phase = 1;
                    cx.push_frame(self.f);
                    cx.count_calls(self.inner, 500);
                    Op::Compute(1_000_000)
                }
                _ => {
                    cx.pop_frame();
                    Op::Exit
                }
            }
        }
    }
    let f = sim.frame("handler");
    let inner = sim.frame("inner");
    sim.spawn(p, m, "t", Box::new(Body { f, inner, phase: 0 }));
    assert!(sim.run_to_idle().is_ok());
    let g = rt.borrow();
    assert_eq!(g.call_count(), 501, "handler + 500 batched internal calls");
    assert_eq!(g.arc(Some(f), inner), 500);
    assert!(g.overhead_cycles() > 0);
    // The mcount overhead extended virtual time beyond the raw compute.
    assert!(sim.now() > 1_000_000);
}

#[test]
fn exited_threads_stay_dead() {
    let mut sim = Sim::default();
    let m = sim.add_machine(1);
    let p = sim.add_unprofiled_process();
    let l = log();
    sim.spawn(p, m, "t", Script::new(vec![], &l));
    assert!(sim.run_to_idle().is_ok());
    assert_eq!(l.borrow().len(), 1, "resumed exactly once, then exited");
}

#[test]
fn notify_without_waiters_is_a_noop() {
    let mut sim = Sim::default();
    let m = sim.add_machine(1);
    let p = sim.add_unprofiled_process();
    let cv = sim.add_cond();
    let l = log();
    sim.spawn(
        p,
        m,
        "t",
        Script::new(vec![Op::Notify(cv, true), Op::Compute(10)], &l),
    );
    assert!(sim.run_to_idle().is_ok());
    assert!(l.borrow().iter().any(|e| e.contains("computed")));
}

#[test]
fn shared_then_exclusive_wait_ordering() {
    let mut sim = Sim::default();
    let m = sim.add_machine(4);
    let p = sim.add_unprofiled_process();
    let lk = sim.add_lock();
    let l = log();
    // Two readers hold; a writer waits; a later reader queues behind
    // the writer (FIFO).
    for i in 0..2 {
        sim.spawn(
            p,
            m,
            &format!("r{i}"),
            Script::new(
                vec![
                    Op::Lock(lk, LockMode::Shared),
                    Op::Compute(10_000),
                    Op::Unlock(lk),
                ],
                &l,
            ),
        );
    }
    sim.spawn(
        p,
        m,
        "w",
        Script::new(
            vec![
                Op::Lock(lk, LockMode::Exclusive),
                Op::Compute(1_000),
                Op::Unlock(lk),
            ],
            &l,
        ),
    );
    sim.spawn(
        p,
        m,
        "late",
        Script::new(vec![Op::Lock(lk, LockMode::Shared), Op::Unlock(lk)], &l),
    );
    assert!(sim.run_to_idle().is_ok());
    let order: Vec<String> = l
        .borrow()
        .iter()
        .filter(|e| e.contains("locked"))
        .cloned()
        .collect();
    // Writer (t2) acquires before the late reader (t3).
    let wi = order.iter().position(|e| e.starts_with("t2:")).unwrap();
    let li = order.iter().position(|e| e.starts_with("t3:")).unwrap();
    assert!(wi < li, "order: {order:?}");
}

#[test]
fn whodunit_send_adds_piggyback_bytes_to_transfer() {
    use whodunit_core::profiler::{Whodunit, WhodunitConfig};
    let mut sim = Sim::default();
    let m = sim.add_machine(1);
    let frames = sim.frames().clone();
    let w = Rc::new(RefCell::new(Whodunit::new(
        WhodunitConfig::new(ProcId(0), "s"),
        frames,
    )));
    let p = sim.add_process(w.clone());
    let pu = sim.add_unprofiled_process();
    // 1 cycle per byte, zero latency: delivery time == bytes.
    let ch = sim.add_channel(0, 1);
    let l = log();
    sim.spawn(
        p,
        m,
        "tx",
        Script::new(vec![Op::Send(ch, Msg::new(9u32, 100))], &l),
    );
    sim.spawn(pu, m, "rx", Script::new(vec![Op::Recv(ch)], &l));
    assert!(sim.run_to_idle().is_ok());
    // 100 payload bytes + 4 synopsis bytes.
    assert_eq!(sim.now(), 104, "piggyback bytes delay the message");
    assert_eq!(w.borrow().ipc().piggyback_bytes, 4);
    let _ = ThreadId(0);
}

/// The three ways to schedule something for t = 1000, by name.
fn at_1000(kind: &str, ch: whodunit_core::ids::ChanId) -> Op {
    match kind {
        "quantum" => Op::Compute(1000),
        "deliver" => Op::Send(ch, Msg::new(5u32, 0)),
        "timer" => Op::Sleep(1000),
        _ => unreachable!(),
    }
}

#[test]
fn same_instant_events_fire_in_scheduling_order_whatever_their_kind() {
    // A quantum end lives in the sorted run, a delivery and a timer in
    // the heap; all three land on t = 1000. Under FIFO the threads run in
    // spawn order at t = 0, so spawn order is scheduling order, and the
    // three must fire in it — for every permutation.
    let kinds = ["quantum", "deliver", "timer"];
    let perms = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for perm in perms {
        let mut sim = Sim::default();
        let m = sim.add_machine(4);
        let p = sim.add_unprofiled_process();
        let ch = sim.add_channel(1000, 0);
        let l = log();
        sim.spawn(p, m, "rx", Script::new(vec![Op::Recv(ch)], &l));
        for &k in &perm {
            sim.spawn(p, m, kinds[k], Script::new(vec![at_1000(kinds[k], ch)], &l));
        }
        assert!(sim.run_to_idle().is_ok());
        assert_eq!(sim.now(), 1000);
        // Thread ids: rx is t0, then the three in spawn order. What
        // each kind's firing makes visible at t = 1000:
        let want: Vec<String> = perm
            .iter()
            .enumerate()
            .map(|(i, &k)| match kinds[k] {
                "quantum" => format!("t{}:computed@1000", i + 1),
                "deliver" => "t0:recv(5)".to_owned(),
                _ => format!("t{}:slept@1000", i + 1),
            })
            .collect();
        let got: Vec<String> = l
            .borrow()
            .iter()
            .filter(|e| e.contains("@1000") || e.contains("recv"))
            .cloned()
            .collect();
        assert_eq!(got, want, "spawn order {perm:?}");
        let c = sim.event_census();
        assert_eq!(
            (c.quantum_end.fired, c.deliver.fired, c.timer.fired),
            (1, 1, 1)
        );
    }
}

/// A busy little system: computes that span several quanta on a shared
/// core, messages, sleeps and a timed receive that expires.
fn busy_sim(l: &Rc<RefCell<Vec<String>>>) -> Sim {
    let mut sim = Sim::new(SimConfig { quantum: 700 });
    let m = sim.add_machine(2);
    let p = sim.add_unprofiled_process();
    let ch = sim.add_channel(450, 3);
    let quiet = sim.add_channel(0, 0);
    sim.spawn(
        p,
        m,
        "rx",
        Script::new(
            vec![
                Op::Recv(ch),
                Op::Compute(1500),
                Op::Recv(ch),
                Op::RecvTimeout(quiet, 2100),
            ],
            l,
        ),
    );
    sim.spawn(
        p,
        m,
        "tx",
        Script::new(
            vec![
                Op::Compute(2000),
                Op::Send(ch, Msg::new(1u32, 50)),
                Op::Sleep(700),
                Op::Send(ch, Msg::new(2u32, 10)),
                Op::Compute(900),
            ],
            l,
        ),
    );
    sim.spawn(
        p,
        m,
        "spin",
        Script::new(vec![Op::Compute(5000), Op::Sleep(1400), Op::Compute(10)], l),
    );
    sim.spawn(
        p,
        m,
        "nap",
        Script::new(vec![Op::Sleep(1400), Op::Compute(2100), Op::Sleep(1)], l),
    );
    sim
}

#[test]
fn chunked_run_is_bit_identical_to_the_unchunked_run() {
    let whole_log = log();
    let mut whole = busy_sim(&whole_log);
    assert!(whole.run_to_idle().is_ok());
    // Every instant something became visible at, plus its neighbours:
    // a limit exactly on an event, one just before it (the event stays
    // queued), and ones that fall between a pending quantum end and a
    // pending timer or delivery.
    let mut limits: Vec<u64> = whole_log
        .borrow()
        .iter()
        .filter_map(|e| e.split('@').nth(1)?.parse().ok())
        .flat_map(|t: u64| [t.saturating_sub(1), t, t + 1])
        .filter(|&t| t <= whole.now())
        .collect();
    limits.sort_unstable();
    limits.dedup();
    assert!(limits.len() > 20, "the run is busy enough to chunk");

    let chunked_log = log();
    let mut chunked = busy_sim(&chunked_log);
    for &limit in &limits {
        assert!(chunked.run_until(limit).is_ok());
        assert_eq!(chunked.now(), limit, "work is pending at every limit");
    }
    assert!(chunked.run_to_idle().is_ok());

    assert_eq!(*chunked_log.borrow(), *whole_log.borrow());
    assert_eq!(chunked.now(), whole.now());
    assert_eq!(chunked.event_census(), whole.event_census());
    let c = whole.event_census();
    assert!(c.quantum_end.fired > 10 && c.timer.fired == 4 && c.deliver.fired == 2);
    assert_eq!(
        c.recv_deadline,
        whodunit_sim::KindCount {
            scheduled: 1,
            fired: 1
        }
    );
    assert_eq!(c.recv_deadlines_stale, 0, "the timed receive expired");
}

/// Records every `waited` its process's threads are granted a lock
/// with, by thread.
#[derive(Default)]
struct GrantLog(Vec<(ThreadId, u64)>);

impl Runtime for GrantLog {
    fn name(&self) -> &'static str {
        "grant-log"
    }

    fn on_lock_acquired(
        &mut self,
        t: ThreadId,
        _lock: whodunit_core::ids::LockId,
        _mode: LockMode,
        waited: u64,
        _holder: Option<whodunit_core::context::CtxId>,
    ) -> u64 {
        self.0.push((t, waited));
        0
    }
}

/// A scripted body that logs each wake's `Debug` form.
struct WakeLog {
    ops: VecDeque<Op>,
    log: Rc<RefCell<Vec<String>>>,
}

impl ThreadBody for WakeLog {
    fn resume(&mut self, _cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        self.log.borrow_mut().push(format!("{wake:?}"));
        self.ops.pop_front().unwrap_or(Op::Exit)
    }
}

/// Every way a thread can be granted a lock, against a free lock and
/// against one another thread holds for `N` more cycles: the resume
/// `Wake` is exact, and the profiler is told the same `waited`.
#[test]
fn every_lock_grant_resumes_with_its_wake_kind_and_wait() {
    const N: u64 = 3_000;
    const DEADLINE: u64 = 5_000;
    #[derive(Clone, Copy, Debug)]
    enum Row {
        Lock,
        CondNotify,
        CondTimeout,
    }
    fn cell(row: Row, held: bool) -> (String, u64) {
        let mut sim = Sim::default();
        let m = sim.add_machine(4);
        let rt = Rc::new(RefCell::new(GrantLog::default()));
        let p = sim.add_process(rt.clone());
        let lk = sim.add_lock();
        let cv = sim.add_cond();
        let x = LockMode::Exclusive;
        // The subject is thread 0; its last wake is the one under test.
        let subject: Vec<Op> = match row {
            Row::Lock => vec![Op::Lock(lk, x)],
            Row::CondNotify => vec![Op::Lock(lk, x), Op::CondWait(cv, lk)],
            Row::CondTimeout => vec![Op::Lock(lk, x), Op::CondWaitTimeout(cv, lk, DEADLINE)],
        };
        // The other thread, when `held`, holds the lock across the
        // subject's (re-)acquire and releases it `N` cycles later.
        let other: Vec<Op> = match (row, held) {
            (Row::Lock, false) => vec![],
            (Row::Lock, true) => vec![Op::Lock(lk, x), Op::Compute(N), Op::Unlock(lk)],
            (Row::CondNotify, false) => vec![Op::Sleep(1_000), Op::Notify(cv, false)],
            (Row::CondNotify, true) => vec![
                Op::Sleep(1_000),
                Op::Lock(lk, x),
                Op::Notify(cv, false),
                Op::Compute(N),
                Op::Unlock(lk),
            ],
            (Row::CondTimeout, false) => vec![],
            (Row::CondTimeout, true) => vec![
                Op::Sleep(1_000),
                Op::Lock(lk, x),
                Op::Compute(DEADLINE - 1_000 + N),
                Op::Unlock(lk),
            ],
        };
        let l = log();
        // In the held `Lock` row the other thread must take the lock
        // first, so it is spawned first there.
        let order: [(&str, Vec<Op>); 2] = if matches!(row, Row::Lock) {
            [("other", other), ("subject", subject)]
        } else {
            [("subject", subject), ("other", other)]
        };
        let mut subject_id = ThreadId(0);
        for (name, ops) in order {
            let body = WakeLog {
                ops: ops.into(),
                log: if name == "subject" { l.clone() } else { log() },
            };
            let t = sim.spawn(p, m, name, Box::new(body));
            if name == "subject" {
                subject_id = t;
            }
        }
        assert!(sim.run_to_idle().is_ok());
        let last_wake = l.borrow().last().cloned().expect("the subject resumed");
        let grants = &rt.borrow().0;
        let &(_, waited) = grants
            .iter()
            .rev()
            .find(|(t, _)| *t == subject_id)
            .expect("the subject was granted the lock");
        (last_wake, waited)
    }
    let table = [
        (Row::Lock, false, "LockAcquired { waited: 0 }", 0),
        (Row::Lock, true, "LockAcquired { waited: 3000 }", N),
        (Row::CondNotify, false, "CondWoken { waited: 0 }", 0),
        (Row::CondNotify, true, "CondWoken { waited: 3000 }", N),
        (Row::CondTimeout, false, "CondTimedOut { waited: 0 }", 0),
        (Row::CondTimeout, true, "CondTimedOut { waited: 3000 }", N),
    ];
    for (row, held, wake, waited) in table {
        assert_eq!(
            cell(row, held),
            (wake.to_owned(), waited),
            "{row:?}, lock held: {held}"
        );
    }
}
