//! Pub/sub event bus: publishers → broker → topic subscribers.
//!
//! Publishers post events to a broker, which acks the publisher and
//! forwards the event to every subscriber registered for the event's
//! topic (each topic lands on exactly two subscribers, so one logical
//! publish multiplies into two one-way deliveries). The subscriber
//! edges are the interesting part for inference: they carry **no
//! replies**, so nesting gives the inferrer nothing and only the
//! per-channel timing window pairs them.

use super::{ClientReply, ClientState, ZooClient, ZooConfig, ZooReport, ZooStats};
use crate::rtconf::make_runtime;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;
use whodunit_core::cost::ms_to_cycles;
use whodunit_core::frame::FrameId;
use whodunit_core::ids::{ChanId, ProcId};
use whodunit_sim::{plant_livelock_pair, Msg, Op, Sim, SimConfig, ThreadBody, ThreadCx, Wake};

/// Distinct topics on the bus.
const TOPICS: u64 = 16;

/// Publisher → broker.
#[derive(Debug)]
struct Publish {
    topic: u64,
    reply: ChanId,
}

/// Broker → subscriber (one-way; no reply channel at all).
#[derive(Debug)]
struct Event {
    topic: u64,
}

/// Is subscriber `j` of `count` subscribed to `topic`? Every topic
/// maps to exactly two subscribers (its home and the next one), so
/// each publish fans out to two deliveries.
fn subscribed(j: u64, count: u64, topic: u64) -> bool {
    topic % count == j || (topic + 1) % count == j
}

struct BrokerWorker {
    in_chan: ChanId,
    subs: Rc<Vec<ChanId>>,
    f_main: FrameId,
    f_pub: FrameId,
    state: BState,
}

enum BState {
    Init,
    WaitMsg,
    /// Forwarding: next subscriber index to consider.
    Fan {
        i: usize,
        topic: u64,
        reply: ChanId,
    },
    Ack {
        reply: ChanId,
    },
    Done,
}

impl ThreadBody for BrokerWorker {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match std::mem::replace(&mut self.state, BState::WaitMsg) {
            BState::Init => {
                cx.push_frame(self.f_main);
                self.state = BState::WaitMsg;
                Op::Recv(self.in_chan)
            }
            BState::WaitMsg => {
                let Wake::Received(msg) = wake else {
                    unreachable!("broker worker waits for publishes");
                };
                let p = msg.take::<Publish>();
                cx.push_frame(self.f_pub);
                self.state = BState::Fan {
                    i: 0,
                    topic: p.topic,
                    reply: p.reply,
                };
                Op::Compute(ms_to_cycles(0.3))
            }
            BState::Fan { i, topic, reply } => {
                let n = self.subs.len();
                // Deliver to the next subscribed index, if any.
                for j in i..n {
                    if subscribed(j as u64, n as u64, topic) {
                        self.state = BState::Fan {
                            i: j + 1,
                            topic,
                            reply,
                        };
                        return Op::Send(self.subs[j], Msg::new(Event { topic }, 512));
                    }
                }
                cx.pop_frame();
                self.state = BState::Ack { reply };
                Op::Compute(ms_to_cycles(0.05))
            }
            BState::Ack { reply } => {
                self.state = BState::Done;
                Op::Send(reply, Msg::new(ClientReply { ok: true }, 128))
            }
            BState::Done => {
                self.state = BState::WaitMsg;
                Op::Recv(self.in_chan)
            }
        }
    }
}

struct SubscriberWorker {
    in_chan: ChanId,
    f_main: FrameId,
    f_ev: FrameId,
    delivered: Rc<RefCell<u64>>,
    state: SubState,
}

enum SubState {
    Init,
    WaitMsg,
    Work,
}

impl ThreadBody for SubscriberWorker {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match std::mem::replace(&mut self.state, SubState::WaitMsg) {
            SubState::Init => {
                cx.push_frame(self.f_main);
                self.state = SubState::WaitMsg;
                Op::Recv(self.in_chan)
            }
            SubState::WaitMsg => {
                let Wake::Received(msg) = wake else {
                    unreachable!("subscriber waits for events");
                };
                let ev = msg.take::<Event>();
                *self.delivered.borrow_mut() += 1;
                cx.push_frame(self.f_ev);
                self.state = SubState::Work;
                Op::Compute(ms_to_cycles(0.4 + (ev.topic % 3) as f64 * 0.2))
            }
            SubState::Work => {
                cx.pop_frame();
                self.state = SubState::WaitMsg;
                Op::Recv(self.in_chan)
            }
        }
    }
}

/// Builds and runs the pub/sub assembly.
pub(super) fn run(cfg: &ZooConfig) -> ZooReport {
    let subs_n = cfg.services.max(2) as usize;
    let mut sim = Sim::new(SimConfig::default());
    sim.set_schedule_policy(cfg.sched);
    sim.set_step_budget(cfg.step_budget);

    let client_m = sim.add_machine(8);
    let broker_m = sim.add_machine(2);
    let sub_m: Vec<_> = (0..subs_n).map(|_| sim.add_machine(1)).collect();

    let broker_pr = make_runtime(cfg.rt, ProcId(0), "broker", sim.frames().clone());
    let broker_proc = sim.add_process(broker_pr.rt.clone());
    let mut sub_procs = Vec::new();
    for i in 0..subs_n {
        let name = format!("sub{i}");
        let pr = make_runtime(cfg.rt, ProcId(1 + i as u32), &name, sim.frames().clone());
        sub_procs.push(sim.add_process(pr.rt.clone()));
    }
    let client_proc = sim.add_unprofiled_process();
    if cfg.comm_log {
        sim.mark_comm_origin(client_proc);
    }

    let broker_in = sim.add_channel(240_000, 20);
    let sub_in: Vec<_> = (0..subs_n).map(|_| sim.add_channel(240_000, 20)).collect();
    if let Some(fs) = cfg.faults {
        let victim = subs_n - 1;
        sim.set_fault_plan(fs.plan(broker_in, sub_in[0], sub_procs[victim], sub_m[victim]));
    }

    let f_b_main = sim.frame("broker_poll");
    let f_b_pub = sim.frame("broker_publish");
    let sub_chans = Rc::new(sub_in.clone());
    for w in 0..6 {
        sim.spawn(
            broker_proc,
            broker_m,
            &format!("broker{w}"),
            Box::new(BrokerWorker {
                in_chan: broker_in,
                subs: sub_chans.clone(),
                f_main: f_b_main,
                f_pub: f_b_pub,
                state: BState::Init,
            }),
        );
    }
    let f_s_main = sim.frame("sub_poll");
    let f_s_ev = sim.frame("sub_consume");
    let delivered = Rc::new(RefCell::new(0u64));
    for (i, &proc) in sub_procs.iter().enumerate() {
        for w in 0..2 {
            sim.spawn(
                proc,
                sub_m[i],
                &format!("sub{i}w{w}"),
                Box::new(SubscriberWorker {
                    in_chan: sub_in[i],
                    f_main: f_s_main,
                    f_ev: f_s_ev,
                    delivered: delivered.clone(),
                    state: SubState::Init,
                }),
            );
        }
    }

    let stats = Rc::new(RefCell::new(ZooStats::default()));
    for c in 0..cfg.clients {
        let reply = sim.add_channel(240_000, 20);
        sim.spawn(
            client_proc,
            client_m,
            &format!("pub{c}"),
            Box::new(ZooClient {
                make_req: |rng: &mut SmallRng, reply| {
                    Msg::new(
                        Publish {
                            topic: rand::Rng::gen_range(rng, 0..TOPICS),
                            reply,
                        },
                        256,
                    )
                },
                rng: SmallRng::seed_from_u64(cfg.seed ^ ((c as u64) << 24) ^ 0x9b),
                entry: broker_in,
                reply,
                stats: stats.clone(),
                warmup: cfg.warmup,
                shape: cfg.shape,
                started: 0,
                state: ClientState::Think,
            }),
        );
    }

    if cfg.livelock_pair {
        plant_livelock_pair(&mut sim, client_proc, client_m);
    }

    let outcome = sim.run_until(cfg.duration);
    let comm = sim.take_comm_log();
    let mut compute_truth = vec![sim.proc_compute_cycles(broker_proc)];
    compute_truth.extend(sub_procs.iter().map(|&p| sim.proc_compute_cycles(p)));
    let st = stats.borrow();
    let events_delivered = *delivered.borrow();
    ZooReport {
        completed: st.completed,
        errors: st.errors,
        outcome,
        dumps: sim.collect_dumps(),
        compute_truth,
        comm,
        dropped_msgs: sim.chans.total_dropped(),
        duplicated_msgs: sim.chans.total_duplicated(),
        delayed_msgs: sim.chans.total_delayed(),
        profiled_procs: 1 + subs_n as u32,
        events_delivered,
        cache_hits: 0,
        invalidations: 0,
    }
}
