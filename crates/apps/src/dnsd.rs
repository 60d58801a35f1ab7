//! Event-driven DNS cache server (§4.1's second example).
//!
//! "Consider an event-driven DNS server. Two different transactions are
//! possible in this application: one corresponding to a cache hit and
//! the other corresponding to a cache miss. Typically, cache hit and
//! cache miss events are handled by different event handlers. So, two
//! different transaction contexts will be established."
//!
//! The model: a single event-loop thread dispatches `recv_query`, then
//! either `reply_from_cache` (hit) or `forward_query` (miss); upstream
//! responses come back through `upstream_reply`, which caches and
//! answers. Whodunit establishes exactly the two context chains the
//! paper predicts.

use crate::harness::Build;
use crate::metrics::MeanAcc;
use crate::rtconf::{ProcRuntime, RtKind};
use crate::STEP_BUDGET;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use whodunit_core::cost::{ms_to_cycles, CPU_HZ};
use whodunit_core::frame::FrameId;
use whodunit_core::ids::ChanId;
use whodunit_core::rt::Continuation;
use whodunit_sim::{Cycles, Msg, Op, RunOutcome, SchedulePolicy, ThreadBody, ThreadCx, Wake};

/// Messages at the DNS server's poll channel.
#[derive(Debug)]
enum DnsMsg {
    Query { qid: u64, name: u32, reply: ChanId },
    UpstreamReply { qid: u64, name: u32 },
}

/// An upstream resolver request.
#[derive(Debug)]
struct UpstreamReq {
    qid: u64,
    name: u32,
    reply: ChanId,
}

struct DnsShared {
    cache: HashMap<u32, u64>,
    pending: HashMap<u64, (ChanId, Continuation)>,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Answers sent.
    pub answers: u64,
}

enum DState {
    Init,
    WaitMsg,
    RecvDone { qid: u64, name: u32, reply: ChanId },
    HitDone { reply: ChanId },
    MissDone { qid: u64, name: u32, reply: ChanId },
    UpstreamDone { reply: ChanId },
    Sent,
}

/// The DNS event loop.
struct DnsLoop {
    shared: Rc<RefCell<DnsShared>>,
    poll: ChanId,
    upstream: ChanId,
    f_recv: FrameId,
    f_hit: FrameId,
    f_fwd: FrameId,
    f_upstream: FrameId,
    state: DState,
}

impl DnsLoop {
    fn dispatch(&self, cx: &mut ThreadCx<'_>, ev: Continuation, handler: FrameId) {
        cx.runtime().borrow_mut().on_resume(cx.me(), ev, handler);
        cx.push_frame(handler);
    }

    fn finish(&self, cx: &mut ThreadCx<'_>) -> Continuation {
        let ev = cx.runtime().borrow_mut().on_capture(cx.me());
        cx.runtime().borrow_mut().on_finish(cx.me());
        cx.pop_frame();
        ev
    }
}

impl ThreadBody for DnsLoop {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match std::mem::replace(&mut self.state, DState::WaitMsg) {
            DState::Init => {
                cx.push_frame(cx.frame("dns_event_loop"));
                self.state = DState::WaitMsg;
                Op::Recv(self.poll)
            }
            DState::WaitMsg => {
                let Wake::Received(msg) = wake else {
                    unreachable!("event loop waits on its poll channel");
                };
                match msg.take::<DnsMsg>() {
                    DnsMsg::Query { qid, name, reply } => {
                        self.dispatch(cx, Continuation::default(), self.f_recv);
                        self.state = DState::RecvDone { qid, name, reply };
                        Op::Compute(ms_to_cycles(0.05))
                    }
                    DnsMsg::UpstreamReply { qid, name } => {
                        let (reply, ev) = self
                            .shared
                            .borrow_mut()
                            .pending
                            .remove(&qid)
                            .expect("pending query");
                        self.shared.borrow_mut().cache.insert(name, qid);
                        self.dispatch(cx, ev, self.f_upstream);
                        self.state = DState::UpstreamDone { reply };
                        Op::Compute(ms_to_cycles(0.08))
                    }
                }
            }
            DState::RecvDone { qid, name, reply } => {
                let ev = self.finish(cx);
                let hit = self.shared.borrow().cache.contains_key(&name);
                if hit {
                    self.shared.borrow_mut().hits += 1;
                    self.dispatch(cx, ev, self.f_hit);
                    self.state = DState::HitDone { reply };
                    Op::Compute(ms_to_cycles(0.04))
                } else {
                    self.shared.borrow_mut().misses += 1;
                    self.dispatch(cx, ev, self.f_fwd);
                    self.state = DState::MissDone { qid, name, reply };
                    Op::Compute(ms_to_cycles(0.06))
                }
            }
            DState::HitDone { reply } => {
                self.finish(cx);
                self.shared.borrow_mut().answers += 1;
                self.state = DState::Sent;
                Op::Send(reply, Msg::new(0u32, 200))
            }
            DState::MissDone { qid, name, reply } => {
                // The forward handler's continuation (and the client's
                // reply channel) wait for the upstream response.
                let ev = self.finish(cx);
                self.shared.borrow_mut().pending.insert(qid, (reply, ev));
                self.state = DState::Sent;
                Op::Send(
                    self.upstream,
                    Msg::new(
                        UpstreamReq {
                            qid,
                            name,
                            reply: self.poll,
                        },
                        120,
                    ),
                )
            }
            DState::UpstreamDone { reply } => {
                self.finish(cx);
                self.shared.borrow_mut().answers += 1;
                self.state = DState::Sent;
                Op::Send(reply, Msg::new(0u32, 200))
            }
            DState::Sent => {
                self.state = DState::WaitMsg;
                Op::Recv(self.poll)
            }
        }
    }
}

/// The upstream resolver: fixed latency per query.
struct Upstream {
    in_chan: ChanId,
    state: u8,
    pending: Option<UpstreamReq>,
}

impl ThreadBody for Upstream {
    fn resume(&mut self, _cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match self.state {
            0 => {
                self.state = 1;
                Op::Recv(self.in_chan)
            }
            1 => {
                let Wake::Received(msg) = wake else {
                    unreachable!("upstream waits for queries");
                };
                self.pending = Some(msg.take::<UpstreamReq>());
                self.state = 2;
                // Recursive resolution takes a while.
                Op::Sleep(ms_to_cycles(30.0))
            }
            2 => {
                let r = self.pending.take().expect("query pending");
                self.state = 3;
                Op::Send(
                    r.reply,
                    Msg::new(
                        DnsMsg::UpstreamReply {
                            qid: r.qid,
                            name: r.name,
                        },
                        300,
                    ),
                )
            }
            _ => {
                self.state = 1;
                Op::Recv(self.in_chan)
            }
        }
    }
}

/// A closed-loop DNS client.
struct DnsClient {
    rng: SmallRng,
    server: ChanId,
    reply: ChanId,
    id: u64,
    seq: u64,
    names: u32,
    rt_acc: Rc<RefCell<MeanAcc>>,
    sent_at: Cycles,
    state: u8,
}

impl ThreadBody for DnsClient {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match self.state {
            0 => {
                self.seq += 1;
                let name = self.rng.gen_range(0..self.names);
                self.sent_at = cx.now();
                self.state = 1;
                Op::Send(
                    self.server,
                    Msg::new(
                        DnsMsg::Query {
                            qid: (self.id << 32) | self.seq,
                            name,
                            reply: self.reply,
                        },
                        100,
                    ),
                )
            }
            1 => {
                self.state = 2;
                Op::Recv(self.reply)
            }
            2 => {
                let Wake::Received(_) = wake else {
                    unreachable!("client waits for the answer");
                };
                self.rt_acc.borrow_mut().add(cx.now() - self.sent_at);
                self.state = 0;
                Op::Sleep(ms_to_cycles(5.0))
            }
            _ => Op::Exit,
        }
    }
}

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct DnsConfig {
    /// Closed-loop clients.
    pub clients: u32,
    /// Distinct names queried (cache key space).
    pub names: u32,
    /// Profiler for the server process.
    pub rt: RtKind,
    /// Virtual duration.
    pub duration: Cycles,
}

impl Default for DnsConfig {
    fn default() -> Self {
        DnsConfig {
            clients: 8,
            names: 400,
            rt: RtKind::Whodunit,
            duration: 10 * CPU_HZ,
        }
    }
}

/// Results of one DNS run.
pub struct DnsReport {
    /// Answers served.
    pub answers: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Mean client-observed latency in cycles.
    pub mean_rt: f64,
    /// The server runtime.
    pub runtime: ProcRuntime,
    /// How the run ended; only a `ReachedLimit` or `Idle` run's numbers
    /// are those of the whole configured duration.
    pub outcome: RunOutcome,
}

/// Runs the DNS server experiment.
pub fn run_dnsd(cfg: DnsConfig) -> DnsReport {
    let mut b = Build::start(cfg.rt, SchedulePolicy::Fifo, Some(STEP_BUDGET));
    let server_m = b.sim.add_machine(1);
    let net_m = b.sim.add_machine(2);

    let (server_proc, pr) = b.tier("dnsd");
    let sim = &mut b.sim;
    let other_proc = sim.add_unprofiled_process();

    let poll = sim.add_channel(60_000, 4);
    let upstream_chan = sim.add_channel(240_000, 8);

    let shared = Rc::new(RefCell::new(DnsShared {
        cache: HashMap::new(),
        pending: HashMap::new(),
        hits: 0,
        misses: 0,
        answers: 0,
    }));
    let f_recv = sim.frame("recv_query");
    let f_hit = sim.frame("reply_from_cache");
    let f_fwd = sim.frame("forward_query");
    let f_upstream = sim.frame("upstream_reply");
    sim.spawn(
        server_proc,
        server_m,
        "dns_loop",
        Box::new(DnsLoop {
            shared: shared.clone(),
            poll,
            upstream: upstream_chan,
            f_recv,
            f_hit,
            f_fwd,
            f_upstream,
            state: DState::Init,
        }),
    );
    for i in 0..4 {
        sim.spawn(
            other_proc,
            net_m,
            &format!("upstream{i}"),
            Box::new(Upstream {
                in_chan: upstream_chan,
                state: 0,
                pending: None,
            }),
        );
    }
    let rt_acc = Rc::new(RefCell::new(MeanAcc::default()));
    for i in 0..cfg.clients {
        let reply = sim.add_channel(60_000, 4);
        sim.spawn(
            other_proc,
            net_m,
            &format!("resolver{i}"),
            Box::new(DnsClient {
                rng: SmallRng::seed_from_u64(77 ^ (i as u64) << 8),
                server: poll,
                reply,
                id: i as u64,
                seq: 0,
                names: cfg.names,
                rt_acc: rt_acc.clone(),
                sent_at: 0,
                state: 0,
            }),
        );
    }
    let outcome = b.run(cfg.duration, false, None).outcome;
    let mean_rt = rt_acc.borrow().mean();
    let sh = shared.borrow();
    DnsReport {
        answers: sh.answers,
        hits: sh.hits,
        misses: sh.misses,
        mean_rt,
        runtime: pr,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dns_establishes_hit_and_miss_contexts() {
        let r = run_dnsd(DnsConfig::default());
        assert_eq!(r.outcome, RunOutcome::ReachedLimit);
        assert!(r.answers > 500, "answers {}", r.answers);
        assert!(r.hits > 0 && r.misses > 0);
        let w = r.runtime.whodunit.as_ref().unwrap().borrow();
        let ctxs: Vec<String> = w
            .profiled_contexts()
            .iter()
            .map(|&c| w.ctx_string(c))
            .collect();
        // §4.1: exactly the two transaction shapes.
        assert!(
            ctxs.iter().any(|s| s == "recv_query -> reply_from_cache"),
            "hit context: {ctxs:?}"
        );
        assert!(
            ctxs.iter()
                .any(|s| s == "recv_query -> forward_query -> upstream_reply"),
            "miss context: {ctxs:?}"
        );
    }

    #[test]
    fn cache_hits_dominate_with_a_small_name_space() {
        let r = run_dnsd(DnsConfig {
            names: 50,
            ..DnsConfig::default()
        });
        assert!(
            r.hits > 5 * r.misses,
            "{} hits vs {} misses",
            r.hits,
            r.misses
        );
        assert!(r.mean_rt > 0.0);
    }

    #[test]
    fn runs_unprofiled_too() {
        let r = run_dnsd(DnsConfig {
            rt: RtKind::None,
            duration: 3 * CPU_HZ,
            ..DnsConfig::default()
        });
        assert!(r.answers > 100);
    }
}
