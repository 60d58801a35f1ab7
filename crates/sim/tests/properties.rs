//! Property tests of the simulation engine: determinism and time
//! monotonicity under randomized thread scripts.

use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use whodunit_core::ids::LockMode;
use whodunit_sim::queue::{Due, EventQueue};
use whodunit_sim::{
    ChannelFaults, FaultPlan, Msg, Op, SendVerdict, Sim, SimConfig, ThreadBody, ThreadCx, Wake,
};

/// A compact scripted op for generation.
#[derive(Clone, Copy, Debug)]
enum GOp {
    Compute(u32),
    LockUnlock(u8),
    Sleep(u32),
    SendRecvSelf,
}

fn gop() -> impl Strategy<Value = GOp> {
    prop_oneof![
        (1u32..2_000_000).prop_map(GOp::Compute),
        (0u8..3).prop_map(GOp::LockUnlock),
        (1u32..1_000_000).prop_map(GOp::Sleep),
        Just(GOp::SendRecvSelf),
    ]
}

struct Scripted {
    ops: VecDeque<GOp>,
    mid: Option<Op>,
    chan: whodunit_core::ids::ChanId,
    locks: Vec<whodunit_core::ids::LockId>,
    trace: Rc<RefCell<Vec<String>>>,
}

impl ThreadBody for Scripted {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        self.trace.borrow_mut().push(format!(
            "{}@{}:{}",
            cx.me(),
            cx.now(),
            match wake {
                Wake::Start => "s",
                Wake::Done => "d",
                Wake::ComputeDone => "c",
                Wake::LockAcquired { .. } => "l",
                Wake::CondWoken { .. } => "w",
                Wake::Received(_) => "r",
                Wake::Slept => "z",
                Wake::RecvTimedOut => "t",
                Wake::CondTimedOut { .. } => "x",
            }
        ));
        if let Some(op) = self.mid.take() {
            return op;
        }
        match self.ops.pop_front() {
            None => Op::Exit,
            Some(GOp::Compute(c)) => Op::Compute(c as u64),
            Some(GOp::LockUnlock(l)) => {
                let lock = self.locks[l as usize];
                self.mid = Some(Op::Unlock(lock));
                Op::Lock(lock, LockMode::Exclusive)
            }
            Some(GOp::Sleep(c)) => Op::Sleep(c as u64),
            Some(GOp::SendRecvSelf) => {
                self.mid = Some(Op::Recv(self.chan));
                Op::Send(self.chan, Msg::new(1u32, 50))
            }
        }
    }
}

fn run_once(scripts: &[Vec<GOp>]) -> (u64, Vec<String>) {
    let mut sim = Sim::new(SimConfig { quantum: 500_000 });
    let m = sim.add_machine(2);
    let p = sim.add_unprofiled_process();
    let locks = vec![sim.add_lock(), sim.add_lock(), sim.add_lock()];
    let trace = Rc::new(RefCell::new(Vec::new()));
    for (i, ops) in scripts.iter().enumerate() {
        let chan = sim.add_channel(1000, 2);
        sim.spawn(
            p,
            m,
            &format!("t{i}"),
            Box::new(Scripted {
                ops: ops.clone().into(),
                mid: None,
                chan,
                locks: locks.clone(),
                trace: trace.clone(),
            }),
        );
    }
    assert!(sim.run_to_idle().is_ok());
    let t = trace.borrow().clone();
    (sim.now(), t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Identical inputs give bit-identical traces, whatever the script.
    #[test]
    fn engine_is_deterministic(
        scripts in proptest::collection::vec(
            proptest::collection::vec(gop(), 0..12),
            1..5
        )
    ) {
        let a = run_once(&scripts);
        let b = run_once(&scripts);
        prop_assert_eq!(a, b);
    }

    /// Wake timestamps never go backwards, and every spawned thread
    /// wakes at least once.
    #[test]
    fn time_is_monotonic_and_everyone_runs(
        scripts in proptest::collection::vec(
            proptest::collection::vec(gop(), 0..10),
            1..5
        )
    ) {
        let (_, trace) = run_once(&scripts);
        let mut last = 0u64;
        for e in &trace {
            let at: u64 = e.split('@').nth(1).unwrap().split(':').next().unwrap().parse().unwrap();
            prop_assert!(at >= last, "time went backwards in {trace:?}");
            last = at;
        }
        for i in 0..scripts.len() {
            prop_assert!(
                trace.iter().any(|e| e.starts_with(&format!("t{i}@"))),
                "thread {i} never ran"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The event queue's order.
//
// The engine keeps near events (quantum ends, deliveries) in a sorted
// run and far ones (timers, deadlines, crashes) in a heap, under one
// sequence counter. The contract every golden rests
// on is that this pops exactly as a single heap ordered by
// `(time, seq)` would — the tie-break is insertion order, whatever the
// kind — and that a limit only ever looks at the next event.
// ---------------------------------------------------------------------

/// One generated step of a queue-order check.
#[derive(Clone, Copy)]
enum QOp {
    /// Schedule a near event `dt` after `now`.
    Near,
    /// Schedule a far event `dt` after `now`.
    Event,
    /// Pop one event due by `now + dt`.
    PopOne,
    /// A `run_until`-style limit `now + dt`, on or between pending
    /// times; popped until the queue says stop.
    Drain,
}

/// The one-heap reference: `(at, seq, is_near)`, smallest first.
type OneHeap = std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64, bool)>>;

/// Runs `ops` against an [`EventQueue`] and the one-heap reference,
/// asserting that every pop agrees, and returns both with the number of
/// pushes. The payload handed to the queue is each push's `seq`.
fn pops_as_one_heap(
    ops: impl IntoIterator<Item = (QOp, u64)>,
) -> (EventQueue<u64, u64>, OneHeap, u64) {
    use std::cmp::Reverse;
    let mut q: EventQueue<u64, u64> = EventQueue::default();
    let mut model = OneHeap::new();
    let (mut seq, mut now) = (0u64, 0u64);
    for (op, dt) in ops {
        match op {
            QOp::Near => {
                q.push_near(now + dt, seq);
                model.push(Reverse((now + dt, seq, true)));
                seq += 1;
            }
            QOp::Event => {
                q.push(now + dt, seq);
                model.push(Reverse((now + dt, seq, false)));
                seq += 1;
            }
            QOp::PopOne | QOp::Drain => loop {
                let limit = now + dt;
                let want = match model.peek() {
                    None => Due::Empty,
                    Some(&Reverse((at, _, _))) if at > limit => Due::Later,
                    Some(_) => {
                        let Reverse((at, s, near)) = model.pop().unwrap();
                        if near {
                            Due::Near(at, s)
                        } else {
                            Due::Event(at, s)
                        }
                    }
                };
                let got = q.pop_due(limit);
                assert_eq!(&got, &want);
                match got {
                    Due::Near(at, _) | Due::Event(at, _) => now = at,
                    Due::Empty | Due::Later => break,
                }
                if matches!(op, QOp::PopOne) {
                    break;
                }
            },
        }
    }
    (q, model, seq)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random interleavings of schedule (either side, small time
    /// offsets so ties are common) and bounded pops agree with the
    /// one-heap reference at every step.
    #[test]
    fn two_queue_pop_order_equals_one_heap_by_time_and_seq(
        ops in proptest::collection::vec((0u8..4, 0u64..6), 0..200)
    ) {
        let mix = |op| match op {
            0 => QOp::Near,
            1 => QOp::Event,
            _ => QOp::Drain,
        };
        let (q, _, seq) = pops_as_one_heap(ops.into_iter().map(|(op, dt)| (mix(op), dt)));
        prop_assert!(q.peak_near() + q.peak_events() <= seq as usize);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The same check with the near events crowded: six pushes in seven
    /// are near, all within two cycles of `now`, and pops are
    /// rare (most take one event, one op in 32 drains to a limit), so
    /// the sorted run grows to dozens of entries, most of them ties.
    #[test]
    fn a_long_run_of_tied_near_events_pops_as_one_heap(
        ops in proptest::collection::vec((0u8..32, 0u64..3), 200..400)
    ) {
        let mix = |op| match op {
            0..=23 => QOp::Near,
            24..=27 => QOp::Event,
            28..=30 => QOp::PopOne,
            _ => QOp::Drain,
        };
        let (mut q, mut model, _) = pops_as_one_heap(ops.into_iter().map(|(op, dt)| (mix(op), dt)));
        // Drain what is left: the whole tail must still agree.
        while let Some(std::cmp::Reverse((at, s, near))) = model.pop() {
            let want = if near { Due::Near(at, s) } else { Due::Event(at, s) };
            prop_assert_eq!(q.pop_due(u64::MAX), want);
        }
        prop_assert_eq!(q.pop_due(u64::MAX), Due::Empty);
        prop_assert!(q.peak_near() >= 24, "the run peaked at {}", q.peak_near());
    }
}

// ---------------------------------------------------------------------
// Fault-plan draw stability.
//
// `FaultPlan::send_verdict` consumes exactly three PRNG draws per send,
// whatever the channel's configuration. That fixed stride is what makes
// the chaos explorer's scenarios composable: adding or tuning faults on
// one channel must never re-align the random stream under another
// channel's verdicts. These properties pin that contract.

fn chan_faults() -> impl Strategy<Value = ChannelFaults> {
    (
        0u32..1_000_000,
        0u32..1_000_000,
        0u32..1_000_000,
        1u64..100_000,
    )
        .prop_map(|(d, u, l, cycles)| ChannelFaults {
            drop_p: d as f64 / 1e6,
            dup_p: u as f64 / 1e6,
            delay_p: l as f64 / 1e6,
            delay_cycles: cycles,
        })
}

/// Runs one plan over a fixed send sequence, returning the verdict each
/// send received, keyed by the channel it went to.
fn verdict_stream(
    seed: u64,
    per_chan: &[(u32, ChannelFaults)],
    sends: &[u32],
) -> Vec<(u32, SendVerdict)> {
    let mut plan = FaultPlan::new(seed);
    for &(c, f) in per_chan {
        plan = plan.channel_faults(whodunit_core::ids::ChanId(c), f);
    }
    sends
        .iter()
        .map(|&c| (c, plan.send_verdict(whodunit_core::ids::ChanId(c))))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Changing one channel's fault config never changes any *other*
    /// channel's verdict stream (same seed, same send sequence).
    #[test]
    fn tuning_one_channel_leaves_the_others_verdicts_alone(
        args in (
            (0u64..1_000_000, 0u32..4),
            proptest::collection::vec(0u32..4, 1..60),
            proptest::collection::vec(chan_faults(), 4..5),
            chan_faults(),
        )
    ) {
        let ((seed, perturbed), sends, base, replacement) = args;
        let cfg: Vec<(u32, ChannelFaults)> =
            base.iter().enumerate().map(|(i, f)| (i as u32, *f)).collect();
        let mut cfg2 = cfg.clone();
        cfg2[perturbed as usize].1 = replacement;
        let a = verdict_stream(seed, &cfg, &sends);
        let b = verdict_stream(seed, &cfg2, &sends);
        for ((ca, va), (cb, vb)) in a.iter().zip(b.iter()) {
            prop_assert_eq!(ca, cb);
            if *ca != perturbed {
                prop_assert_eq!(va, vb, "channel {} verdict moved when channel {} changed", ca, perturbed);
            }
        }
    }

    /// The verdict stream is a pure function of (seed, config, send
    /// sequence): replaying the same plan gives identical verdicts.
    #[test]
    fn verdict_stream_is_replayable(
        args in (
            0u64..1_000_000,
            proptest::collection::vec(0u32..4, 1..60),
            proptest::collection::vec(chan_faults(), 4..5),
        )
    ) {
        let (seed, sends, base) = args;
        let cfg: Vec<(u32, ChannelFaults)> =
            base.iter().enumerate().map(|(i, f)| (i as u32, *f)).collect();
        prop_assert_eq!(
            verdict_stream(seed, &cfg, &sends),
            verdict_stream(seed, &cfg, &sends)
        );
    }
}
