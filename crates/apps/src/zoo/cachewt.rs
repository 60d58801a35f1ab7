//! Write-through cache pair: front → 2 shards → store, with peer
//! invalidations between the shards.
//!
//! Reads hit the key's home shard; misses walk through to the store
//! and fill the cache. Writes go through the home shard to the store
//! and then broadcast an invalidation to the *peer* shard — a
//! fire-and-forget edge between mid-tier siblings that neither the
//! request nor the reply path explains. A write-heavy flash crowd
//! turns that edge into an invalidation storm, which is precisely the
//! traffic pattern black-box inference finds hardest to attribute: a
//! burst of same-sized messages on one channel at near-identical
//! timestamps.

use super::{ClientReply, ClientState, ZooClient, ZooConfig, ZooReport, ZooStats};
use crate::rtconf::make_runtime;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use whodunit_core::cost::ms_to_cycles;
use whodunit_core::frame::FrameId;
use whodunit_core::ids::{ChanId, ProcId};
use whodunit_sim::{
    plant_livelock_pair, Cycles, Msg, Op, Sim, SimConfig, ThreadBody, ThreadCx, Wake,
};

/// Cache key space.
const KEYS: u64 = 64;

/// Client → front.
#[derive(Debug)]
struct CacheOp {
    key: u64,
    write: bool,
    reply: ChanId,
}

/// Front → shard, or shard → shard (invalidation).
#[derive(Debug)]
enum ShardMsg {
    Op {
        key: u64,
        write: bool,
        seq: u64,
        reply: ChanId,
    },
    /// Peer invalidation after a write-through. Fire-and-forget.
    Inval { key: u64 },
}

/// Shard → store.
#[derive(Debug)]
struct StoreReq {
    write: bool,
    seq: u64,
    reply: ChanId,
}

/// Store → shard.
#[derive(Debug)]
struct StoreReply {
    seq: u64,
}

/// Shard → front.
#[derive(Debug)]
struct ShardReply {
    seq: u64,
    ok: bool,
}

struct FrontWorker {
    in_chan: ChanId,
    shards: [ChanId; 2],
    my_reply: ChanId,
    timeout: Cycles,
    f_main: FrameId,
    f_op: FrameId,
    seq: u64,
    state: FState,
}

enum FState {
    Init,
    WaitMsg,
    ToShard {
        key: u64,
        write: bool,
        client: ChanId,
    },
    WaitShard {
        client: ChanId,
    },
    Reply {
        client: ChanId,
        ok: bool,
    },
    Done,
}

impl ThreadBody for FrontWorker {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match std::mem::replace(&mut self.state, FState::WaitMsg) {
            FState::Init => {
                cx.push_frame(self.f_main);
                self.state = FState::WaitMsg;
                Op::Recv(self.in_chan)
            }
            FState::WaitMsg => {
                let Wake::Received(msg) = wake else {
                    unreachable!("front worker waits for client ops");
                };
                let op = msg.take::<CacheOp>();
                cx.push_frame(self.f_op);
                self.seq += 1;
                self.state = FState::ToShard {
                    key: op.key,
                    write: op.write,
                    client: op.reply,
                };
                Op::Compute(ms_to_cycles(0.1))
            }
            FState::ToShard { key, write, client } => {
                self.state = FState::WaitShard { client };
                Op::Send(
                    self.shards[(key % 2) as usize],
                    Msg::new(
                        ShardMsg::Op {
                            key,
                            write,
                            seq: self.seq,
                            reply: self.my_reply,
                        },
                        350,
                    ),
                )
            }
            FState::WaitShard { client } => match wake {
                Wake::Done => {
                    self.state = FState::WaitShard { client };
                    Op::RecvTimeout(self.my_reply, self.timeout)
                }
                Wake::Received(msg) => {
                    let r = msg.take::<ShardReply>();
                    if r.seq != self.seq {
                        // A stale reply from a timed-out shard RPC.
                        self.state = FState::WaitShard { client };
                        return Op::RecvTimeout(self.my_reply, self.timeout);
                    }
                    self.state = FState::Reply { client, ok: r.ok };
                    Op::Compute(ms_to_cycles(0.05))
                }
                Wake::RecvTimedOut => {
                    self.state = FState::Reply { client, ok: false };
                    Op::Compute(ms_to_cycles(0.05))
                }
                _ => unreachable!("front waits on its shard RPC"),
            },
            FState::Reply { client, ok } => {
                cx.pop_frame();
                self.state = FState::Done;
                Op::Send(client, Msg::new(ClientReply { ok }, 1024))
            }
            FState::Done => {
                self.state = FState::WaitMsg;
                Op::Recv(self.in_chan)
            }
        }
    }
}

/// Per-shard shared state.
#[derive(Debug, Default)]
struct ShardShared {
    cache: HashSet<u64>,
    hits: u64,
    invals_delivered: u64,
}

struct ShardWorker {
    in_chan: ChanId,
    peer: ChanId,
    store: ChanId,
    my_reply: ChanId,
    timeout: Cycles,
    shared: Rc<RefCell<ShardShared>>,
    f_main: FrameId,
    f_read: FrameId,
    f_write: FrameId,
    f_inval: FrameId,
    /// This worker's own store-RPC sequence.
    seq: u64,
    /// The front's seq for the op in flight, echoed back on reply.
    pending: u64,
    state: ShState,
}

enum ShState {
    Init,
    WaitMsg,
    HitReply {
        seq: u64,
        reply: ChanId,
    },
    ToStore {
        key: u64,
        write: bool,
        reply: ChanId,
    },
    WaitStore {
        key: u64,
        write: bool,
        reply: ChanId,
    },
    /// Write-through done; invalidate the peer shard.
    Inval {
        key: u64,
        reply: ChanId,
    },
    Reply {
        reply: ChanId,
        ok: bool,
    },
    InvalWork,
    Done,
}

impl ThreadBody for ShardWorker {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match std::mem::replace(&mut self.state, ShState::WaitMsg) {
            ShState::Init => {
                cx.push_frame(self.f_main);
                self.state = ShState::WaitMsg;
                Op::Recv(self.in_chan)
            }
            ShState::WaitMsg => {
                let Wake::Received(msg) = wake else {
                    unreachable!("shard worker waits for ops");
                };
                match msg.take::<ShardMsg>() {
                    ShardMsg::Op {
                        key,
                        write,
                        seq,
                        reply,
                    } => {
                        if write {
                            cx.push_frame(self.f_write);
                            self.state = ShState::ToStore { key, write, reply };
                            // The front's seq is not unique across its
                            // workers; shard RPCs to the store use the
                            // shard worker's own sequence and the
                            // front's seq is restored on reply.
                            self.seq = self.seq.wrapping_add(1);
                            self.pending = seq;
                            Op::Compute(ms_to_cycles(0.15))
                        } else if self.shared.borrow().cache.contains(&key) {
                            self.shared.borrow_mut().hits += 1;
                            cx.push_frame(self.f_read);
                            self.pending = seq;
                            self.state = ShState::HitReply { seq, reply };
                            Op::Compute(ms_to_cycles(0.2))
                        } else {
                            cx.push_frame(self.f_read);
                            self.seq = self.seq.wrapping_add(1);
                            self.pending = seq;
                            self.state = ShState::ToStore { key, write, reply };
                            Op::Compute(ms_to_cycles(0.1))
                        }
                    }
                    ShardMsg::Inval { key } => {
                        let mut sh = self.shared.borrow_mut();
                        sh.cache.remove(&key);
                        sh.invals_delivered += 1;
                        drop(sh);
                        cx.push_frame(self.f_inval);
                        self.state = ShState::InvalWork;
                        Op::Compute(ms_to_cycles(0.05))
                    }
                }
            }
            ShState::HitReply { seq, reply } => {
                cx.pop_frame();
                self.state = ShState::Done;
                Op::Send(reply, Msg::new(ShardReply { seq, ok: true }, 900))
            }
            ShState::ToStore { key, write, reply } => {
                self.state = ShState::WaitStore { key, write, reply };
                Op::Send(
                    self.store,
                    Msg::new(
                        StoreReq {
                            write,
                            seq: self.seq,
                            reply: self.my_reply,
                        },
                        300,
                    ),
                )
            }
            ShState::WaitStore { key, write, reply } => match wake {
                Wake::Done => {
                    self.state = ShState::WaitStore { key, write, reply };
                    Op::RecvTimeout(self.my_reply, self.timeout)
                }
                Wake::Received(msg) => {
                    let r = msg.take::<StoreReply>();
                    if r.seq != self.seq {
                        self.state = ShState::WaitStore { key, write, reply };
                        return Op::RecvTimeout(self.my_reply, self.timeout);
                    }
                    self.shared.borrow_mut().cache.insert(key);
                    if write {
                        self.state = ShState::Inval { key, reply };
                        Op::Compute(ms_to_cycles(0.1))
                    } else {
                        self.state = ShState::Reply { reply, ok: true };
                        Op::Compute(ms_to_cycles(0.15))
                    }
                }
                Wake::RecvTimedOut => {
                    self.state = ShState::Reply { reply, ok: false };
                    Op::Compute(ms_to_cycles(0.05))
                }
                _ => unreachable!("shard waits on its store RPC"),
            },
            ShState::Inval { key, reply } => {
                self.state = ShState::Reply { reply, ok: true };
                Op::Send(self.peer, Msg::new(ShardMsg::Inval { key }, 200))
            }
            ShState::Reply { reply, ok } => {
                cx.pop_frame();
                self.state = ShState::Done;
                Op::Send(
                    reply,
                    Msg::new(
                        ShardReply {
                            seq: self.pending,
                            ok,
                        },
                        900,
                    ),
                )
            }
            ShState::InvalWork => {
                cx.pop_frame();
                self.state = ShState::WaitMsg;
                Op::Recv(self.in_chan)
            }
            ShState::Done => {
                self.state = ShState::WaitMsg;
                Op::Recv(self.in_chan)
            }
        }
    }
}

/// Builds and runs the write-through cache assembly.
pub(super) fn run(cfg: &ZooConfig) -> ZooReport {
    let mut sim = Sim::new(SimConfig::default());
    sim.set_schedule_policy(cfg.sched);
    sim.set_step_budget(cfg.step_budget);

    let client_m = sim.add_machine(8);
    let front_m = sim.add_machine(2);
    let shard_m = [sim.add_machine(1), sim.add_machine(1)];
    let store_m = sim.add_machine(2);

    let front_pr = make_runtime(cfg.rt, ProcId(0), "front", sim.frames().clone());
    let front_proc = sim.add_process(front_pr.rt.clone());
    let mut shard_procs = Vec::new();
    for i in 0..2u32 {
        let name = format!("shard{i}");
        let pr = make_runtime(cfg.rt, ProcId(1 + i), &name, sim.frames().clone());
        shard_procs.push(sim.add_process(pr.rt.clone()));
    }
    let store_pr = make_runtime(cfg.rt, ProcId(3), "store", sim.frames().clone());
    let store_proc = sim.add_process(store_pr.rt.clone());
    let client_proc = sim.add_unprofiled_process();
    if cfg.comm_log {
        sim.mark_comm_origin(client_proc);
    }

    let front_in = sim.add_channel(240_000, 20);
    let shard_in = [sim.add_channel(240_000, 20), sim.add_channel(240_000, 20)];
    let store_in = sim.add_channel(240_000, 20);
    if let Some(fs) = cfg.faults {
        sim.set_fault_plan(fs.plan(front_in, store_in, store_proc, store_m));
    }

    let f_f_main = sim.frame("front_poll");
    let f_f_op = sim.frame("front_route");
    for w in 0..6 {
        let my_reply = sim.add_channel(240_000, 20);
        sim.spawn(
            front_proc,
            front_m,
            &format!("front{w}"),
            Box::new(FrontWorker {
                in_chan: front_in,
                shards: shard_in,
                my_reply,
                timeout: cfg.rpc_timeout,
                f_main: f_f_main,
                f_op: f_f_op,
                seq: 0,
                state: FState::Init,
            }),
        );
    }
    let f_s_main = sim.frame("shard_poll");
    let f_s_read = sim.frame("shard_read");
    let f_s_write = sim.frame("shard_write_through");
    let f_s_inval = sim.frame("shard_invalidate");
    let shard_shared = [
        Rc::new(RefCell::new(ShardShared::default())),
        Rc::new(RefCell::new(ShardShared::default())),
    ];
    for i in 0..2usize {
        for w in 0..3 {
            let my_reply = sim.add_channel(240_000, 20);
            sim.spawn(
                shard_procs[i],
                shard_m[i],
                &format!("shard{i}w{w}"),
                Box::new(ShardWorker {
                    in_chan: shard_in[i],
                    peer: shard_in[1 - i],
                    store: store_in,
                    my_reply,
                    timeout: cfg.rpc_timeout,
                    shared: shard_shared[i].clone(),
                    f_main: f_s_main,
                    f_read: f_s_read,
                    f_write: f_s_write,
                    f_inval: f_s_inval,
                    seq: 0,
                    pending: 0,
                    state: ShState::Init,
                }),
            );
        }
    }
    let f_st_main = sim.frame("store_poll");
    let f_st_op = sim.frame("store_serve");
    for w in 0..4 {
        sim.spawn(
            store_proc,
            store_m,
            &format!("store{w}"),
            Box::new(StoreWorker {
                in_chan: store_in,
                f_main: f_st_main,
                f_op: f_st_op,
                state: StState::Init,
            }),
        );
    }

    let stats = Rc::new(RefCell::new(ZooStats::default()));
    for c in 0..cfg.clients {
        let reply = sim.add_channel(240_000, 20);
        sim.spawn(
            client_proc,
            client_m,
            &format!("cache_client{c}"),
            Box::new(ZooClient {
                make_req: |rng: &mut SmallRng, reply| {
                    let key = rand::Rng::gen_range(rng, 0..KEYS);
                    let write = rand::Rng::gen::<f64>(rng) < 0.3;
                    Msg::new(CacheOp { key, write, reply }, 300)
                },
                rng: SmallRng::seed_from_u64(cfg.seed ^ ((c as u64) << 24) ^ 0xc4),
                entry: front_in,
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
    let compute_truth = vec![
        sim.proc_compute_cycles(front_proc),
        sim.proc_compute_cycles(shard_procs[0]),
        sim.proc_compute_cycles(shard_procs[1]),
        sim.proc_compute_cycles(store_proc),
    ];
    let st = stats.borrow();
    let hits = shard_shared[0].borrow().hits + shard_shared[1].borrow().hits;
    let invals =
        shard_shared[0].borrow().invals_delivered + shard_shared[1].borrow().invals_delivered;
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
        profiled_procs: 4,
        events_delivered: 0,
        cache_hits: hits,
        invalidations: invals,
    }
}

struct StoreWorker {
    in_chan: ChanId,
    f_main: FrameId,
    f_op: FrameId,
    state: StState,
}

enum StState {
    Init,
    WaitMsg,
    Reply { seq: u64, reply: ChanId },
    Done,
}

impl ThreadBody for StoreWorker {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match std::mem::replace(&mut self.state, StState::WaitMsg) {
            StState::Init => {
                cx.push_frame(self.f_main);
                self.state = StState::WaitMsg;
                Op::Recv(self.in_chan)
            }
            StState::WaitMsg => {
                let Wake::Received(msg) = wake else {
                    unreachable!("store worker waits for requests");
                };
                let req = msg.take::<StoreReq>();
                cx.push_frame(self.f_op);
                self.state = StState::Reply {
                    seq: req.seq,
                    reply: req.reply,
                };
                Op::Compute(ms_to_cycles(if req.write { 1.0 } else { 0.6 }))
            }
            StState::Reply { seq, reply } => {
                cx.pop_frame();
                self.state = StState::Done;
                Op::Send(reply, Msg::new(StoreReply { seq }, 700))
            }
            StState::Done => {
                self.state = StState::WaitMsg;
                Op::Recv(self.in_chan)
            }
        }
    }
}
