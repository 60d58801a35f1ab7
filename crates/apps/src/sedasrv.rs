//! Haboob-like SEDA web server (Figure 10, §8.3, §9.3).
//!
//! The stage graph follows Figure 10:
//!
//! ```text
//! ListenStage → HttpServer → ReadStage → HttpRecv → CacheStage
//!                      hit ↘                         ↓ miss
//!                      WriteStage ← File I/O Stage ← MissStage
//! ```
//!
//! Each stage is a [`whodunit_sim::seda::StageWorker`] pool consuming
//! from its stage queue; queue elements carry transaction contexts via
//! the Figure 5 hooks, so a request's context at WriteStage is either
//! the hit path `[Listen…Cache, Write]` or the miss path
//! `[…Cache, Miss, FileIO, Write]` — letting Whodunit report the two
//! WriteStage appearances separately (37.65% vs 46.58% in the paper).
//!
//! Connections (with their request lists) traverse the pipeline as
//! single elements; CacheStage splits a connection's files into a hit
//! batch and a miss batch.

use crate::harness::Build;
use crate::httpd::{Conn, WebClient};
use crate::metrics::mbps;
use crate::rtconf::{ProcRuntime, RtKind};
use crate::STEP_BUDGET;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use whodunit_core::cost::CPU_HZ;
use whodunit_core::ids::{ChanId, LockMode};
use whodunit_sim::seda::{StageOutcome, StageQueue, StageWorker};
use whodunit_sim::{Cycles, Msg, Op, RunOutcome, SchedulePolicy, Sim, ThreadBody, ThreadCx, Wake};
use whodunit_workload::{WebTrace, WebTraceConfig};

/// Per-connection stage costs.
const LISTEN_COST: Cycles = 90_000;
const HTTPSERVER_COST: Cycles = 80_000;
const READ_COST: Cycles = 110_000;
const RECV_COST: Cycles = 80_000;
const CACHE_COST: Cycles = 110_000;
const MISS_BASE: Cycles = 150_000;
/// File-I/O cost per byte read from disk (miss path).
const FILEIO_PER_BYTE: Cycles = 260;
const FILEIO_BASE: Cycles = 120_000;
/// Write cost per byte (Haboob's Java I/O path is expensive).
const WRITE_PER_BYTE: Cycles = 380;
const WRITE_BASE: Cycles = 70_000;

/// Shared server state.
pub struct HaboobShared {
    /// File cache: present files.
    cache: HashMap<u32, u64>,
    cache_bytes: u64,
    cache_capacity: u64,
    /// Bytes served.
    pub served_bytes: u64,
    /// Requests (files) served.
    pub served_reqs: u64,
    /// Hit/miss counts per file request.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
}

impl HaboobShared {
    fn cache_insert(&mut self, file: u32, bytes: u64) {
        if self.cache.contains_key(&file) {
            return;
        }
        // Crude capacity bound: refuse inserts beyond capacity (Haboob
        // keeps a bounded page cache; eviction details don't matter for
        // the profile shape).
        if self.cache_bytes + bytes > self.cache_capacity {
            return;
        }
        self.cache_bytes += bytes;
        self.cache.insert(file, bytes);
    }
}

/// The acceptor: injects arriving connections into ListenStage's queue.
struct Acceptor {
    in_chan: ChanId,
    listen_q: Rc<RefCell<StageQueue>>,
    state: AState,
}

enum AState {
    WaitConn,
    Locked(Option<Conn>),
    Pushed,
    Notified,
}

impl ThreadBody for Acceptor {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match std::mem::replace(&mut self.state, AState::WaitConn) {
            AState::WaitConn => match wake {
                Wake::Start => {
                    self.state = AState::WaitConn;
                    Op::Recv(self.in_chan)
                }
                Wake::Received(msg) => {
                    let elem = msg.take::<Conn>();
                    self.state = AState::Locked(Some(elem));
                    Op::Lock(self.listen_q.borrow().lock, LockMode::Exclusive)
                }
                _ => unreachable!("acceptor waits for connections"),
            },
            AState::Locked(elem) => {
                let elem = elem.expect("element present");
                let ctx = cx.runtime().borrow_mut().on_capture(cx.me());
                self.listen_q.borrow_mut().push(ctx, Box::new(elem));
                self.state = AState::Pushed;
                Op::Unlock(self.listen_q.borrow().lock)
            }
            AState::Pushed => {
                self.state = AState::Notified;
                Op::Notify(self.listen_q.borrow().cond, false)
            }
            AState::Notified => {
                self.state = AState::WaitConn;
                Op::Recv(self.in_chan)
            }
        }
    }
}

/// Haboob experiment configuration.
#[derive(Clone, Debug)]
pub struct HaboobConfig {
    /// Closed-loop clients.
    pub clients: u32,
    /// Profiler installed in the server process.
    pub rt: RtKind,
    /// Virtual run duration.
    pub duration: Cycles,
    /// Trace parameters.
    pub trace: WebTraceConfig,
}

/// Cache capacity in bytes.
const CACHE_BYTES: u64 = 2 * 1024 * 1024;
/// Worker threads per stage.
const WORKERS_PER_STAGE: u32 = 2;

impl Default for HaboobConfig {
    fn default() -> Self {
        HaboobConfig {
            clients: 24,
            rt: RtKind::Whodunit,
            duration: 20 * CPU_HZ,
            trace: WebTraceConfig {
                files: 5000,
                ..WebTraceConfig::default()
            },
        }
    }
}

/// Results of one Haboob run.
pub struct HaboobReport {
    /// Client-facing throughput in Mb/s.
    pub throughput_mbps: f64,
    /// Requests (files) served.
    pub reqs: u64,
    /// Request hit fraction.
    pub hit_rate: f64,
    /// The server's profiling runtime.
    pub runtime: ProcRuntime,
    /// Virtual duration.
    pub duration: Cycles,
    /// How the run ended; only a `ReachedLimit` or `Idle` run's numbers
    /// are those of the whole configured duration.
    pub outcome: RunOutcome,
}

/// Runs the Haboob-like SEDA server.
pub fn run_haboob(cfg: HaboobConfig) -> HaboobReport {
    let mut b = Build::start(cfg.rt, SchedulePolicy::Fifo, Some(STEP_BUDGET));
    let server_m = b.sim.add_machine(1);
    let client_m = b.sim.add_machine(8);

    let (server_proc, pr) = b.tier("haboob");
    let sim = &mut b.sim;
    let client_proc = sim.add_unprofiled_process();

    let in_chan = sim.add_channel(240_000, 20);

    let shared = Rc::new(RefCell::new(HaboobShared {
        cache: HashMap::new(),
        cache_bytes: 0,
        cache_capacity: CACHE_BYTES,
        served_bytes: 0,
        served_reqs: 0,
        hits: 0,
        misses: 0,
    }));

    // Build the stage queues.
    let mk_q = |sim: &mut Sim| {
        let l = sim.add_lock();
        let c = sim.add_cond();
        StageQueue::new(l, c)
    };
    let q_listen = mk_q(sim);
    let q_httpserver = mk_q(sim);
    let q_read = mk_q(sim);
    let q_recv = mk_q(sim);
    let q_cache = mk_q(sim);
    let q_miss = mk_q(sim);
    let q_fileio = mk_q(sim);
    let q_write = mk_q(sim);

    let f_listen = sim.frame("ListenStage");
    let f_httpserver = sim.frame("HttpServer");
    let f_read = sim.frame("ReadStage");
    let f_recv = sim.frame("HttpRecv");
    let f_cache = sim.frame("CacheStage");
    let f_miss = sim.frame("MissStage");
    let f_fileio = sim.frame("FileIoStage");
    let f_write = sim.frame("WriteStage");

    // Simple pass-through stages.
    type Handler = Box<dyn FnMut(&mut ThreadCx<'_>, Box<dyn std::any::Any>) -> StageOutcome>;
    let passthrough = |next: Rc<RefCell<StageQueue>>, cost: Cycles| -> Handler {
        Box::new(move |_cx, data| {
            let elem = data.downcast::<Conn>().expect("conn element");
            StageOutcome::compute(cost).emit(&next, *elem)
        })
    };

    let spawn_stage = |sim: &mut Sim,
                       name: &str,
                       frame: whodunit_core::frame::FrameId,
                       q: &Rc<RefCell<StageQueue>>,
                       n: u32,
                       mk: &mut dyn FnMut() -> Handler| {
        for i in 0..n {
            sim.spawn(
                server_proc,
                server_m,
                &format!("{name}{i}"),
                StageWorker::new(frame, q.clone(), mk()),
            );
        }
    };

    let n = WORKERS_PER_STAGE;
    {
        let next = q_httpserver.clone();
        spawn_stage(sim, "listen", f_listen, &q_listen, 1, &mut || {
            passthrough(next.clone(), LISTEN_COST)
        });
    }
    {
        let next = q_read.clone();
        spawn_stage(
            sim,
            "httpserver",
            f_httpserver,
            &q_httpserver,
            1,
            &mut || passthrough(next.clone(), HTTPSERVER_COST),
        );
    }
    {
        let next = q_recv.clone();
        spawn_stage(sim, "read", f_read, &q_read, n, &mut || {
            passthrough(next.clone(), READ_COST)
        });
    }
    {
        let next = q_cache.clone();
        spawn_stage(sim, "httprecv", f_recv, &q_recv, n, &mut || {
            passthrough(next.clone(), RECV_COST)
        });
    }
    {
        // CacheStage: split into hit batch (→ WriteStage) and miss
        // batch (→ MissStage).
        let sh = shared.clone();
        let qw = q_write.clone();
        let qm = q_miss.clone();
        spawn_stage(sim, "cache", f_cache, &q_cache, n, &mut || {
            let sh = sh.clone();
            let qw = qw.clone();
            let qm = qm.clone();
            Box::new(move |_cx, data| {
                let elem = data.downcast::<Conn>().expect("conn element");
                let Conn { files, reply } = *elem;
                let mut hits = Vec::new();
                let mut misses = Vec::new();
                {
                    let mut s = sh.borrow_mut();
                    for (f, b) in files {
                        if s.cache.contains_key(&f) {
                            s.hits += 1;
                            hits.push((f, b));
                        } else {
                            s.misses += 1;
                            misses.push((f, b));
                        }
                    }
                }
                let mut out = StageOutcome::compute(CACHE_COST);
                if !hits.is_empty() {
                    out = out.emit(&qw, Conn { files: hits, reply });
                }
                if !misses.is_empty() {
                    out = out.emit(
                        &qm,
                        Conn {
                            files: misses,
                            reply,
                        },
                    );
                }
                out
            })
        });
    }
    {
        let next = q_fileio.clone();
        spawn_stage(sim, "miss", f_miss, &q_miss, n, &mut || {
            passthrough(next.clone(), MISS_BASE)
        });
    }
    {
        // File I/O: read the files from disk, insert into the cache.
        let sh = shared.clone();
        let qw = q_write.clone();
        spawn_stage(sim, "fileio", f_fileio, &q_fileio, n, &mut || {
            let sh = sh.clone();
            let qw = qw.clone();
            Box::new(move |_cx, data| {
                let elem = data.downcast::<Conn>().expect("conn element");
                let bytes: u64 = elem.files.iter().map(|&(_, b)| b).sum();
                {
                    let mut s = sh.borrow_mut();
                    for &(f, b) in &elem.files {
                        s.cache_insert(f, b);
                    }
                }
                StageOutcome::compute(FILEIO_BASE + bytes * FILEIO_PER_BYTE).emit(&qw, *elem)
            })
        });
    }
    {
        // WriteStage: send each file's bytes back to the client.
        let sh = shared.clone();
        spawn_stage(sim, "write", f_write, &q_write, n + 2, &mut || {
            let sh = sh.clone();
            Box::new(move |_cx, data| {
                let elem = data.downcast::<Conn>().expect("conn element");
                let bytes: u64 = elem.files.iter().map(|&(_, b)| b).sum();
                let mut out = StageOutcome::compute(WRITE_BASE + bytes * WRITE_PER_BYTE);
                {
                    let mut s = sh.borrow_mut();
                    s.served_bytes += bytes;
                    s.served_reqs += elem.files.len() as u64;
                }
                for &(_, b) in &elem.files {
                    out = out.send(elem.reply, Msg::new(b, b));
                }
                out
            })
        });
    }

    sim.spawn(
        server_proc,
        server_m,
        "acceptor",
        Box::new(Acceptor {
            in_chan,
            listen_q: q_listen.clone(),
            state: AState::WaitConn,
        }),
    );

    for i in 0..cfg.clients {
        let reply = sim.add_channel(240_000, 20);
        let mut tc = cfg.trace.clone();
        tc.stream = i as u64 + 1;
        sim.spawn(
            client_proc,
            client_m,
            &format!("client{i}"),
            Box::new(WebClient::new(WebTrace::new(tc), in_chan, reply)),
        );
    }

    let outcome = b.run(cfg.duration, false, None).outcome;

    let sh = shared.borrow();
    let hit_rate = if sh.hits + sh.misses == 0 {
        0.0
    } else {
        sh.hits as f64 / (sh.hits + sh.misses) as f64
    };
    HaboobReport {
        throughput_mbps: mbps(sh.served_bytes, cfg.duration),
        reqs: sh.served_reqs,
        hit_rate,
        runtime: pr,
        duration: cfg.duration,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(rt: RtKind) -> HaboobReport {
        run_haboob(HaboobConfig {
            clients: 12,
            duration: 6 * CPU_HZ,
            rt,
            ..HaboobConfig::default()
        })
    }

    #[test]
    fn haboob_serves_requests() {
        let r = quick(RtKind::Whodunit);
        assert_eq!(r.outcome, RunOutcome::ReachedLimit);
        assert!(r.reqs > 100, "reqs {}", r.reqs);
        assert!(r.hit_rate > 0.2, "hit rate {}", r.hit_rate);
        assert!(r.throughput_mbps > 1.0, "tput {}", r.throughput_mbps);
    }

    #[test]
    fn write_stage_appears_in_hit_and_miss_contexts() {
        // Figure 10: WriteStage reached via the cache-hit path and via
        // MissStage → FileIoStage.
        let r = quick(RtKind::Whodunit);
        let w = r.runtime.whodunit.as_ref().unwrap().borrow();
        let ctxs: Vec<String> = w
            .profiled_contexts()
            .iter()
            .map(|&c| w.ctx_string(c))
            .collect();
        let hit = "ListenStage -> HttpServer -> ReadStage -> HttpRecv -> CacheStage -> WriteStage";
        let miss = "ListenStage -> HttpServer -> ReadStage -> HttpRecv -> CacheStage -> MissStage -> FileIoStage -> WriteStage";
        assert!(ctxs.iter().any(|s| s == hit), "hit path missing: {ctxs:?}");
        assert!(
            ctxs.iter().any(|s| s == miss),
            "miss path missing: {ctxs:?}"
        );
    }

    #[test]
    fn profiling_overhead_is_moderate() {
        let base = quick(RtKind::None);
        let prof = quick(RtKind::Whodunit);
        let oh = 1.0 - prof.throughput_mbps / base.throughput_mbps;
        assert!(oh < 0.15, "overhead {:.1}%", oh * 100.0);
    }
}
