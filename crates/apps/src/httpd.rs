//! Apache-like multithreaded web server (Figures 1 & 8, §9.2).
//!
//! A *listener* thread accepts incoming connections and pushes them
//! into a shared fd queue; *worker* threads pop connections and serve
//! the HTTP requests on them. The queue push/pop critical sections run
//! as **guest programs on the instruction emulator** — the exact code
//! shape of Figure 1 — so Whodunit's §3 flow-detection algorithm sees
//! real (emulated) `MOV`s and infers the listener → worker transaction
//! flow, and the emulation's cycle cost (Table 3) is charged to the
//! serving threads, reproducing the §9.2 overhead experiment.
//!
//! Workers also exercise Apache's synchronized memory allocator
//! (§8.1): each connection allocates a block from a VM-emulated free
//! list and returns it afterwards. Whodunit detects the pattern,
//! disables flow for that lock, and stops emulating it — the §7.2
//! bail-out.

use crate::metrics::mbps;
use crate::rtconf::{make_runtime, ProcRuntime, RtKind};
use crate::STEP_BUDGET;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use whodunit_core::cost::CPU_HZ;
use whodunit_core::frame::FrameId;
use whodunit_core::ids::{ChanId, LockId, LockMode, ProcId, ThreadId};
use whodunit_core::rt::Runtime;
use whodunit_sim::time::CondId;
use whodunit_sim::{Cycles, Msg, Op, RunOutcome, Sim, SimConfig, ThreadBody, ThreadCx, Wake};
use whodunit_vm::programs::{Allocator, FdQueue};
use whodunit_vm::{Cpu, CsEmulator, ExecMode, GuestMem, Program, TranslationCache};
use whodunit_workload::{WebTrace, WebTraceConfig};

/// Cost of accepting a connection (socket + apr bookkeeping).
const ACCEPT_COST: Cycles = 60_000;
/// Cost of parsing one HTTP request.
const PARSE_COST: Cycles = 100_000;
/// Base cost of a `sendfile` call.
const SENDFILE_BASE: Cycles = 40_000;
/// Per-byte CPU cost of serving content (copy/checksum/driver).
const SENDFILE_PER_BYTE: Cycles = 38;

/// A connection as sent by a client: the requested file sizes and the
/// channel to reply on.
#[derive(Debug)]
struct Conn {
    sizes: Vec<u64>,
    reply: ChanId,
}

/// State shared by the httpd threads.
pub struct HttpdShared {
    mem: GuestMem,
    tcache: TranslationCache,
    fdq: FdQueue,
    alloc: Allocator,
    conns: HashMap<i64, Conn>,
    next_token: i64,
    queued: u32,
    emu: CsEmulator,
    /// Bytes of content served.
    pub served_bytes: u64,
    /// Requests served.
    pub served_reqs: u64,
    /// Connections served.
    pub served_conns: u64,
    /// Cycles spent running guest code (emulated or direct).
    pub guest_cycles: u64,
}

impl HttpdShared {
    fn new(fdq_lock: u32, alloc_lock: u32) -> Self {
        let fdq = FdQueue::new(fdq_lock);
        let alloc = Allocator::at(alloc_lock, 2048);
        let mut mem = GuestMem::new(4096);
        // Seed the allocator's free list with block addresses (the
        // block payloads live at 3000+).
        let blocks: Vec<i64> = (0..64).map(|i| 3000 + i).collect();
        alloc.seed(&mut mem, &blocks);
        FdQueue::init(&mut mem, 900);
        HttpdShared {
            mem,
            tcache: TranslationCache::new(),
            fdq,
            alloc,
            conns: HashMap::new(),
            next_token: 1,
            queued: 0,
            emu: CsEmulator::default(),
            served_bytes: 0,
            served_reqs: 0,
            served_conns: 0,
            guest_cycles: 0,
        }
    }

    /// Runs a guest program for `t`, consulting the runtime for the
    /// §7.2 emulate-or-native decision and streaming memory events to
    /// it. Returns the cycles to charge and the CPU register file
    /// afterwards (for return values).
    fn run_guest(
        &mut self,
        rt: &Rc<RefCell<dyn Runtime>>,
        t: ThreadId,
        stack: &[FrameId],
        prog: &Program,
        lock: LockId,
        args: &[(usize, i64)],
    ) -> (Cycles, [i64; 16]) {
        let mut cpu = Cpu::new(t);
        for &(r, v) in args {
            cpu.regs[r] = v;
        }
        let emulate = rt.borrow().wants_emulation(lock);
        let stats = if emulate {
            let mut rtb = rt.borrow_mut();
            self.emu.run(
                prog,
                &mut cpu,
                &mut self.mem,
                ExecMode::Emulated {
                    tcache: &mut self.tcache,
                },
                &mut |e| rtb.on_mem_event(t, stack, e),
            )
        } else {
            self.emu
                .run(prog, &mut cpu, &mut self.mem, ExecMode::Direct, &mut |_| {})
        };
        self.guest_cycles += stats.cycles;
        (stats.cycles, cpu.regs)
    }
}

/// The listener thread: accept → `ap_queue_push` → notify.
struct Listener {
    shared: Rc<RefCell<HttpdShared>>,
    conn_chan: ChanId,
    qlock: LockId,
    qcond: CondId,
    f_main: FrameId,
    f_accept: FrameId,
    f_push: FrameId,
    state: LState,
}

enum LState {
    Init,
    WaitConn,
    Accepted(i64),
    QLocked(i64),
    Pushed,
    Unlocked,
    Notified,
}

impl ThreadBody for Listener {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match std::mem::replace(&mut self.state, LState::Init) {
            LState::Init => {
                cx.push_frame(self.f_main);
                self.state = LState::WaitConn;
                Op::Recv(self.conn_chan)
            }
            LState::WaitConn => {
                let Wake::Received(msg) = wake else {
                    unreachable!("listener waits only for connections");
                };
                let conn = msg.take::<Conn>();
                let mut sh = self.shared.borrow_mut();
                let token = sh.next_token;
                sh.next_token += 1;
                sh.conns.insert(token, conn);
                drop(sh);
                cx.push_frame(self.f_accept);
                self.state = LState::Accepted(token);
                Op::Compute(ACCEPT_COST)
            }
            LState::Accepted(token) => {
                self.state = LState::QLocked(token);
                Op::Lock(self.qlock, LockMode::Exclusive)
            }
            LState::QLocked(token) => {
                cx.push_frame(self.f_push);
                let rt = cx.runtime();
                let stack: Vec<FrameId> = cx.stack().to_vec();
                let push = self.shared.borrow().fdq.push.clone();
                let (cycles, _) = self.shared.borrow_mut().run_guest(
                    &rt,
                    cx.me(),
                    &stack,
                    &push,
                    self.qlock,
                    &[(1, token), (2, token)],
                );
                self.shared.borrow_mut().queued += 1;
                self.state = LState::Pushed;
                Op::Compute(cycles)
            }
            LState::Pushed => {
                cx.pop_frame();
                self.state = LState::Unlocked;
                Op::Unlock(self.qlock)
            }
            LState::Unlocked => {
                self.state = LState::Notified;
                Op::Notify(self.qcond, false)
            }
            LState::Notified => {
                cx.pop_frame();
                self.state = LState::WaitConn;
                Op::Recv(self.conn_chan)
            }
        }
    }
}

/// A worker thread: `ap_queue_pop` → allocator → serve requests →
/// free → loop.
struct Worker {
    shared: Rc<RefCell<HttpdShared>>,
    qlock: LockId,
    qcond: CondId,
    alock: LockId,
    f_main: FrameId,
    f_pop: FrameId,
    f_process: FrameId,
    f_sendfile: FrameId,
    state: WState,
}

enum WState {
    Init,
    QLock,
    Popped(i64),
    AllocLock(Option<Conn>),
    Alloced(Option<Conn>),
    AllocUnlocked(Option<Conn>),
    Parse { conn: Option<Conn>, idx: usize },
    SendfileDone { conn: Option<Conn>, idx: usize },
    Replied { conn: Option<Conn>, idx: usize },
    FreeLock,
    Freed,
    FreeUnlocked,
}

impl Worker {
    fn pop_or_wait(&mut self, cx: &mut ThreadCx<'_>) -> Op {
        // Holding the queue lock.
        let queued = self.shared.borrow().queued;
        if queued == 0 {
            self.state = WState::QLock;
            return Op::CondWait(self.qcond, self.qlock);
        }
        self.shared.borrow_mut().queued -= 1;
        cx.push_frame(self.f_pop);
        let rt = cx.runtime();
        let stack: Vec<FrameId> = cx.stack().to_vec();
        let pop = self.shared.borrow().fdq.pop.clone();
        let (cycles, regs) =
            self.shared
                .borrow_mut()
                .run_guest(&rt, cx.me(), &stack, &pop, self.qlock, &[]);
        // r5 holds the consumed `sd` (our connection token) after the
        // post-exit use; value integrity through the emulated queue.
        self.state = WState::Popped(regs[5]);
        Op::Compute(cycles)
    }
}

impl ThreadBody for Worker {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match std::mem::replace(&mut self.state, WState::Init) {
            WState::Init => {
                cx.push_frame(self.f_main);
                self.state = WState::QLock;
                Op::Lock(self.qlock, LockMode::Exclusive)
            }
            WState::QLock => {
                debug_assert!(matches!(
                    wake,
                    Wake::LockAcquired { .. } | Wake::CondWoken { .. }
                ));
                self.pop_or_wait(cx)
            }
            WState::Popped(token) => {
                cx.pop_frame();
                let conn = self
                    .shared
                    .borrow_mut()
                    .conns
                    .remove(&token)
                    .expect("popped token has a registered connection");
                self.state = WState::AllocLock(Some(conn));
                Op::Unlock(self.qlock)
            }
            WState::AllocLock(conn) => {
                cx.push_frame(self.f_process);
                self.state = WState::Alloced(conn);
                Op::Lock(self.alock, LockMode::Exclusive)
            }
            WState::Alloced(conn) => {
                let rt = cx.runtime();
                let stack: Vec<FrameId> = cx.stack().to_vec();
                let alloc = self.shared.borrow().alloc.alloc.clone();
                let (cycles, _) = self.shared.borrow_mut().run_guest(
                    &rt,
                    cx.me(),
                    &stack,
                    &alloc,
                    self.alock,
                    &[],
                );
                self.state = WState::AllocUnlocked(conn);
                Op::Compute(cycles)
            }
            WState::AllocUnlocked(conn) => {
                self.state = WState::Parse { conn, idx: 0 };
                Op::Unlock(self.alock)
            }
            WState::Parse { conn, idx } => {
                let done = conn.as_ref().map(|c| idx >= c.sizes.len()).unwrap_or(true);
                if done {
                    // All requests served; return the allocator block.
                    self.state = WState::Freed;
                    // Account the finished connection while dropping it.
                    if let Some(c) = conn {
                        let mut sh = self.shared.borrow_mut();
                        sh.served_conns += 1;
                        drop(c);
                    }
                    return Op::Lock(self.alock, LockMode::Exclusive);
                }
                self.state = WState::SendfileDone { conn, idx };
                Op::Compute(PARSE_COST)
            }
            WState::SendfileDone { conn, idx } => {
                let bytes = conn.as_ref().expect("conn present").sizes[idx];
                cx.push_frame(self.f_sendfile);
                self.state = WState::Replied { conn, idx };
                Op::Compute(SENDFILE_BASE + bytes * SENDFILE_PER_BYTE)
            }
            WState::Replied { conn, idx } => {
                cx.pop_frame();
                let c = conn.as_ref().expect("conn present");
                let bytes = c.sizes[idx];
                let reply = c.reply;
                {
                    let mut sh = self.shared.borrow_mut();
                    sh.served_bytes += bytes;
                    sh.served_reqs += 1;
                }
                self.state = WState::Parse { conn, idx: idx + 1 };
                Op::Send(reply, Msg::new(bytes, bytes))
            }
            WState::Freed => {
                let rt = cx.runtime();
                let stack: Vec<FrameId> = cx.stack().to_vec();
                let free = self.shared.borrow().alloc.free.clone();
                let (cycles, _) = self.shared.borrow_mut().run_guest(
                    &rt,
                    cx.me(),
                    &stack,
                    &free,
                    self.alock,
                    &[(1, 3000)],
                );
                self.state = WState::FreeUnlocked;
                Op::Compute(cycles)
            }
            WState::FreeUnlocked => {
                self.state = WState::FreeLock;
                Op::Unlock(self.alock)
            }
            WState::FreeLock => {
                cx.pop_frame();
                self.state = WState::QLock;
                Op::Lock(self.qlock, LockMode::Exclusive)
            }
        }
    }
}

/// A closed-loop web client: opens a connection, issues its requests,
/// reads the responses, repeats.
struct WebClient {
    trace: WebTrace,
    server: ChanId,
    reply: ChanId,
    outstanding: usize,
}

impl WebClient {
    fn next_conn(&mut self) -> Conn {
        let mut sizes = Vec::new();
        loop {
            let r = self.trace.next_request();
            sizes.push(r.bytes);
            if r.last_on_connection {
                break;
            }
        }
        Conn {
            sizes,
            reply: self.reply,
        }
    }
}

impl ThreadBody for WebClient {
    fn resume(&mut self, _cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match wake {
            Wake::Start | Wake::Done if self.outstanding == 0 => {
                let conn = self.next_conn();
                self.outstanding = conn.sizes.len();
                Op::Send(self.server, Msg::new(conn, 400))
            }
            Wake::Done => Op::Recv(self.reply),
            Wake::Received(_) => {
                self.outstanding -= 1;
                if self.outstanding == 0 {
                    let conn = self.next_conn();
                    self.outstanding = conn.sizes.len();
                    Op::Send(self.server, Msg::new(conn, 400))
                } else {
                    Op::Recv(self.reply)
                }
            }
            _ => unreachable!("client wakes: start/done/received"),
        }
    }
}

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct HttpdConfig {
    /// Number of closed-loop clients.
    pub clients: u32,
    /// Worker threads.
    pub workers: u32,
    /// Virtual run duration.
    pub duration: Cycles,
    /// Which profiler to install in the server process.
    pub rt: RtKind,
    /// Web trace parameters.
    pub trace: WebTraceConfig,
}

impl Default for HttpdConfig {
    fn default() -> Self {
        HttpdConfig {
            clients: 24,
            workers: 8,
            duration: 20 * CPU_HZ,
            rt: RtKind::Whodunit,
            trace: WebTraceConfig::default(),
        }
    }
}

/// Results of one httpd run.
pub struct HttpdReport {
    /// Served content throughput in Mb/s.
    pub throughput_mbps: f64,
    /// Connections completed.
    pub conns: u64,
    /// Requests served.
    pub reqs: u64,
    /// Cycles spent in guest (critical-section) code.
    pub guest_cycles: u64,
    /// The server's profiling runtime (for reading profiles).
    pub runtime: ProcRuntime,
    /// The fd-queue lock (for flow queries).
    pub fdq_lock: LockId,
    /// The allocator lock.
    pub alloc_lock: LockId,
    /// Virtual duration of the run.
    pub duration: Cycles,
    /// How the run ended; only a `ReachedLimit` or `Idle` run's numbers
    /// are those of the whole configured duration.
    pub outcome: RunOutcome,
}

/// Runs the Apache-like server under the given configuration.
pub fn run_httpd(cfg: HttpdConfig) -> HttpdReport {
    let mut sim = Sim::new(SimConfig::default());
    sim.set_step_budget(Some(STEP_BUDGET));
    let server_m = sim.add_machine(1);
    let client_m = sim.add_machine(8);

    let qlock = sim.add_lock();
    let qcond = sim.add_cond();
    let alock = sim.add_lock();

    let pr = make_runtime(cfg.rt, ProcId(0), "httpd", sim.frames().clone());
    let httpd_proc = sim.add_process(pr.rt.clone());
    let client_proc = sim.add_unprofiled_process();

    let conn_chan = sim.add_channel(240_000, 20);

    let shared = Rc::new(RefCell::new(HttpdShared::new(qlock.0, alock.0)));

    let f_lmain = sim.frame("listener_main");
    let f_accept = sim.frame("apr_socket_accept");
    let f_push = sim.frame("ap_queue_push");
    let f_wmain = sim.frame("worker_main");
    let f_pop = sim.frame("ap_queue_pop");
    let f_process = sim.frame("ap_process_connection");
    let f_sendfile = sim.frame("sendfile");

    sim.spawn(
        httpd_proc,
        server_m,
        "listener",
        Box::new(Listener {
            shared: shared.clone(),
            conn_chan,
            qlock,
            qcond,
            f_main: f_lmain,
            f_accept,
            f_push,
            state: LState::Init,
        }),
    );
    for i in 0..cfg.workers {
        sim.spawn(
            httpd_proc,
            server_m,
            &format!("worker{i}"),
            Box::new(Worker {
                shared: shared.clone(),
                qlock,
                qcond,
                alock,
                f_main: f_wmain,
                f_pop,
                f_process,
                f_sendfile,
                state: WState::Init,
            }),
        );
    }
    for i in 0..cfg.clients {
        let reply = sim.add_channel(240_000, 20);
        let mut trace_cfg = cfg.trace.clone();
        trace_cfg.stream = i as u64 + 1;
        sim.spawn(
            client_proc,
            client_m,
            &format!("client{i}"),
            Box::new(WebClient {
                trace: WebTrace::new(trace_cfg),
                server: conn_chan,
                reply,
                outstanding: 0,
            }),
        );
    }

    let outcome = sim.run_until(cfg.duration);

    let sh = shared.borrow();
    HttpdReport {
        throughput_mbps: mbps(sh.served_bytes, cfg.duration),
        conns: sh.served_conns,
        reqs: sh.served_reqs,
        guest_cycles: sh.guest_cycles,
        runtime: pr,
        fdq_lock: qlock,
        alloc_lock: alock,
        duration: cfg.duration,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whodunit_core::shm::FlowEvent;

    fn small_cfg(rt: RtKind) -> HttpdConfig {
        HttpdConfig {
            clients: 8,
            workers: 4,
            duration: 3 * CPU_HZ,
            rt,
            ..HttpdConfig::default()
        }
    }

    #[test]
    fn serves_traffic_and_detects_fd_queue_flow() {
        let r = run_httpd(small_cfg(RtKind::Whodunit));
        assert_eq!(r.outcome, RunOutcome::ReachedLimit);
        assert!(r.reqs > 100, "reqs = {}", r.reqs);
        assert!(r.conns > 20, "conns = {}", r.conns);
        assert!(r.throughput_mbps > 10.0, "tput = {}", r.throughput_mbps);
        let w = r.runtime.whodunit.as_ref().unwrap().borrow();
        // §8.1: flow through the fd queue is detected…
        assert!(w
            .flow_log()
            .iter()
            .any(|e| matches!(e, FlowEvent::Consumed { lock, .. } if *lock == r.fdq_lock)));
        assert!(w.detector().flow_enabled(r.fdq_lock));
        // …and the allocator pattern is excluded + emulation disabled.
        assert!(!w.detector().flow_enabled(r.alloc_lock));
        assert!(!w.wants_emulation(r.alloc_lock));
    }

    #[test]
    fn worker_profile_carries_listener_context() {
        let r = run_httpd(small_cfg(RtKind::Whodunit));
        let w = r.runtime.whodunit.as_ref().unwrap().borrow();
        // Figure 8: the worker's CCT must be annotated with a context
        // containing the listener's push path.
        let flow_ctx = w
            .profiled_contexts()
            .into_iter()
            .find(|&c| w.ctx_string(c).contains("ap_queue_push"))
            .expect("a flow context exists");
        let cct = w.cct(flow_ctx).expect("flow context has samples");
        assert!(cct.total().cycles > 0);
    }

    #[test]
    fn unprofiled_run_serves_more_or_equal() {
        let base = run_httpd(small_cfg(RtKind::None));
        let prof = run_httpd(small_cfg(RtKind::Whodunit));
        assert!(base.throughput_mbps >= prof.throughput_mbps * 0.99);
        // Overhead should be single-digit percent (§9.2 measures 2.3%).
        let oh = 1.0 - prof.throughput_mbps / base.throughput_mbps;
        assert!(oh < 0.15, "overhead {:.1}%", oh * 100.0);
    }

    #[test]
    fn run_is_deterministic() {
        let a = run_httpd(small_cfg(RtKind::Whodunit));
        let b = run_httpd(small_cfg(RtKind::Whodunit));
        assert_eq!(a.reqs, b.reqs);
        assert_eq!(a.conns, b.conns);
        assert_eq!(a.guest_cycles, b.guest_cycles);
    }
}
