//! Microservice fan-out/fan-in: gateway → K services → gateway.
//!
//! Each client request reaches a gateway worker, which issues one
//! sub-request to *every* service and merges the K replies before
//! answering the client. The K sibling sub-requests leave the gateway
//! back-to-back at virtually the same instant on different channels —
//! the structure that makes naive global-FIFO pairing fall over and
//! per-channel windows necessary. Fan-in replies arrive in service
//! order only on a quiet system; under load they interleave.
//!
//! Workers carry a per-request sequence number so a reply that limps
//! in after its RPC timed out (crashed or slowed service) is
//! discarded instead of being credited to the *next* request.

use super::{run_clients, ClientReply, ZooConfig, ZooReport};
use crate::harness::{Build, Stream};
use rand::rngs::SmallRng;
use std::rc::Rc;
use whodunit_core::cost::ms_to_cycles;
use whodunit_core::frame::FrameId;
use whodunit_core::ids::ChanId;
use whodunit_sim::{Cycles, Msg, Op, ThreadBody, ThreadCx, Wake};

/// Client → gateway request.
#[derive(Debug)]
struct FanReq {
    key: u64,
    reply: ChanId,
}

/// Gateway → service sub-request.
#[derive(Debug)]
struct SvcReq {
    key: u64,
    seq: u64,
    reply: ChanId,
}

/// Service → gateway sub-reply.
#[derive(Debug)]
struct SvcReply {
    seq: u64,
}

struct GatewayWorker {
    in_chan: ChanId,
    services: Rc<Vec<ChanId>>,
    my_reply: ChanId,
    timeout: Cycles,
    f_main: FrameId,
    f_fan: FrameId,
    seq: u64,
    state: GState,
}

enum GState {
    Init,
    WaitMsg,
    /// Sending sub-request `i` of the current fan-out.
    SendSvc {
        i: usize,
        key: u64,
        client: ChanId,
    },
    /// Fan-in: `left` sub-replies outstanding.
    Collect {
        left: usize,
        client: ChanId,
    },
    Merge {
        client: ChanId,
    },
    Reply {
        client: ChanId,
        ok: bool,
    },
    Done,
}

impl ThreadBody for GatewayWorker {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match std::mem::replace(&mut self.state, GState::WaitMsg) {
            GState::Init => {
                cx.push_frame(self.f_main);
                self.state = GState::WaitMsg;
                Op::Recv(self.in_chan)
            }
            GState::WaitMsg => {
                let Wake::Received(msg) = wake else {
                    unreachable!("gateway worker waits for client requests");
                };
                let req = msg.take::<FanReq>();
                cx.push_frame(self.f_fan);
                self.seq += 1;
                self.state = GState::SendSvc {
                    i: 0,
                    key: req.key,
                    client: req.reply,
                };
                Op::Compute(ms_to_cycles(0.2))
            }
            GState::SendSvc { i, key, client } => {
                if i == self.services.len() {
                    self.state = GState::Collect {
                        left: self.services.len(),
                        client,
                    };
                    return Op::RecvTimeout(self.my_reply, self.timeout);
                }
                self.state = GState::SendSvc {
                    i: i + 1,
                    key,
                    client,
                };
                Op::Send(
                    self.services[i],
                    Msg::new(
                        SvcReq {
                            key: key.wrapping_add(i as u64),
                            seq: self.seq,
                            reply: self.my_reply,
                        },
                        300,
                    ),
                )
            }
            GState::Collect { left, client } => match wake {
                Wake::Received(msg) => {
                    let r = msg.take::<SvcReply>();
                    // Stale replies (a previous request's timed-out
                    // sub-RPC) are discarded, not credited.
                    let left = if r.seq == self.seq { left - 1 } else { left };
                    if left == 0 {
                        self.state = GState::Merge { client };
                        Op::Compute(ms_to_cycles(0.4))
                    } else {
                        self.state = GState::Collect { left, client };
                        Op::RecvTimeout(self.my_reply, self.timeout)
                    }
                }
                Wake::RecvTimedOut => {
                    self.state = GState::Reply { client, ok: false };
                    Op::Compute(ms_to_cycles(0.1))
                }
                _ => unreachable!("fan-in sees sub-replies or a timeout"),
            },
            GState::Merge { client } => {
                self.state = GState::Reply { client, ok: true };
                Op::Compute(ms_to_cycles(0.1))
            }
            GState::Reply { client, ok } => {
                cx.pop_frame();
                self.state = GState::Done;
                Op::Send(client, Msg::new(ClientReply { ok }, 2048))
            }
            GState::Done => {
                self.state = GState::WaitMsg;
                Op::Recv(self.in_chan)
            }
        }
    }
}

struct ServiceWorker {
    in_chan: ChanId,
    f_main: FrameId,
    f_op: FrameId,
    cost_ms: f64,
    state: SState,
}

enum SState {
    Init,
    WaitMsg,
    Work { seq: u64, reply: ChanId },
    Reply { seq: u64, reply: ChanId },
    Done,
}

impl ThreadBody for ServiceWorker {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match std::mem::replace(&mut self.state, SState::WaitMsg) {
            SState::Init => {
                cx.push_frame(self.f_main);
                self.state = SState::WaitMsg;
                Op::Recv(self.in_chan)
            }
            SState::WaitMsg => {
                let Wake::Received(msg) = wake else {
                    unreachable!("service worker waits for sub-requests");
                };
                let req = msg.take::<SvcReq>();
                cx.push_frame(self.f_op);
                self.state = SState::Work {
                    seq: req.seq,
                    reply: req.reply,
                };
                // Key-dependent cost keeps service latencies diverse.
                Op::Compute(ms_to_cycles(
                    self.cost_ms * (1.0 + (req.key % 5) as f64 * 0.2),
                ))
            }
            SState::Work { seq, reply } => {
                cx.pop_frame();
                self.state = SState::Reply { seq, reply };
                Op::Compute(ms_to_cycles(0.05))
            }
            SState::Reply { seq, reply } => {
                self.state = SState::Done;
                Op::Send(reply, Msg::new(SvcReply { seq }, 600))
            }
            SState::Done => {
                self.state = SState::WaitMsg;
                Op::Recv(self.in_chan)
            }
        }
    }
}

/// Builds and runs the fan-out assembly.
pub(super) fn run(cfg: &ZooConfig, stream: Stream<'_>) -> ZooReport {
    let services = cfg.services.max(1) as usize;
    let mut b = Build::start(cfg.rt, cfg.sched, cfg.step_budget);

    let client_m = b.sim.add_machine(8);
    let gw_m = b.sim.add_machine(2);
    let svc_m: Vec<_> = (0..services).map(|_| b.sim.add_machine(2)).collect();

    let (gw_proc, _) = b.tier("gateway");
    let svc_procs: Vec<_> = (0..services)
        .map(|i| b.tier(&format!("svc{i}")).0)
        .collect();
    b.client(client_m, cfg.comm_log);
    let sim = &mut b.sim;

    let gw_in = sim.add_channel(240_000, 20);
    let svc_in: Vec<_> = (0..services)
        .map(|_| sim.add_channel(240_000, 20))
        .collect();
    if let Some(fs) = cfg.faults {
        let victim = services - 1;
        sim.set_fault_plan(fs.plan(gw_in, svc_in[0], svc_procs[victim], svc_m[victim]));
    }

    let f_gw_main = sim.frame("gw_poll");
    let f_gw_fan = sim.frame("gw_fanout_request");
    let svc_chans = Rc::new(svc_in.clone());
    for w in 0..8 {
        let my_reply = sim.add_channel(240_000, 20);
        sim.spawn(
            gw_proc,
            gw_m,
            &format!("gw{w}"),
            Box::new(GatewayWorker {
                in_chan: gw_in,
                services: svc_chans.clone(),
                my_reply,
                timeout: cfg.rpc_timeout,
                f_main: f_gw_main,
                f_fan: f_gw_fan,
                seq: 0,
                state: GState::Init,
            }),
        );
    }
    let f_svc_main = sim.frame("svc_poll");
    let f_svc_op = sim.frame("svc_handle");
    for (i, &proc) in svc_procs.iter().enumerate() {
        for w in 0..2 {
            sim.spawn(
                proc,
                svc_m[i],
                &format!("svc{i}w{w}"),
                Box::new(ServiceWorker {
                    in_chan: svc_in[i],
                    f_main: f_svc_main,
                    f_op: f_svc_op,
                    cost_ms: 0.5 + i as f64 * 0.3,
                    state: SState::Init,
                }),
            );
        }
    }

    run_clients(
        b,
        cfg,
        stream,
        gw_in,
        "fan_client",
        0,
        |rng: &mut SmallRng, reply| {
            let key = rand::Rng::gen::<u64>(rng) >> 16;
            Msg::new(FanReq { key, reply }, 400)
        },
    )
}
