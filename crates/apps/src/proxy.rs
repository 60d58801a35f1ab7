//! Squid-like event-driven proxy cache (Figure 9, §8.2, §9.3).
//!
//! A single event-loop thread (`comm_poll`) dispatches five handlers,
//! exactly Squid's main handlers from the paper:
//!
//! - `httpAccept` — a client opened a connection;
//! - `clientReadRequest` — a request arrived on a connection;
//! - `commConnectHandle` — an origin connection is being opened (miss);
//! - `httpReadReply` — content arrived from the origin server;
//! - `commHandleWrite` — the response is written back to the client.
//!
//! Each handler execution is reported to the runtime through the §4.1
//! event hooks: the handler runs under the continuation context stored
//! on its connection and leaves a new continuation behind. A cache hit
//! executes `commHandleWrite` under the context
//! `[httpAccept, clientReadRequest]`; a miss goes through
//! `commConnectHandle`/`httpReadReply` first — which is how Whodunit
//! distinguishes the hit and miss appearances of `commHandleWrite`
//! (Figure 9), something a regular profiler cannot do. Persistent
//! connections re-execute `clientReadRequest` after `commHandleWrite`;
//! the §4.1 loop pruning keeps contexts finite.

use crate::metrics::mbps;
use crate::rtconf::{make_runtime, ProcRuntime, RtKind};
use crate::STEP_BUDGET;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use whodunit_core::cost::{ms_to_cycles, CPU_HZ};
use whodunit_core::frame::FrameId;
use whodunit_core::ids::ChanId;
use whodunit_core::rt::Continuation;
use whodunit_sim::{
    Cycles, Msg, Op, RunOutcome, ScenarioFaults, Sim, SimConfig, ThreadBody, ThreadCx, Wake,
};
use whodunit_workload::{WebTrace, WebTraceConfig};

/// Handler CPU costs.
const ACCEPT_COST: Cycles = 120_000;
const READ_REQ_COST: Cycles = 150_000;
const CONNECT_COST: Cycles = 90_000;
const READ_REPLY_BASE: Cycles = 60_000;
const READ_REPLY_PER_BYTE: Cycles = 50;
const WRITE_BASE: Cycles = 50_000;
const WRITE_PER_BYTE: Cycles = 55;

/// Cache capacity in bytes.
const CACHE_BYTES: u64 = 24 * 1024 * 1024;

/// Messages arriving at the proxy's poll channel.
#[derive(Debug)]
enum ProxyMsg {
    /// A client opened a connection.
    NewConn { conn: u64, reply: ChanId },
    /// A request on an open connection.
    Request { conn: u64, file: u32 },
    /// Origin content for an outstanding miss.
    OriginData { conn: u64, file: u32, bytes: u64 },
}

/// A request to the origin server.
#[derive(Debug)]
struct OriginReq {
    conn: u64,
    file: u32,
    reply: ChanId,
}

struct ConnState {
    reply: ChanId,
    ev: Continuation,
}

/// One cached object: its size and how long it stays fresh.
#[derive(Clone, Copy)]
struct CacheEntry {
    bytes: u64,
    fresh_until: Cycles,
}

/// What a cache probe found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CacheLookup {
    /// A fresh copy of this many bytes.
    Fresh(u64),
    /// A copy exists but its TTL expired; normally revalidated at the
    /// origin, but servable as-is when the origin is down
    /// (`stale-if-error`).
    Stale(u64),
    /// Nothing cached.
    Miss,
}

/// Cache with a byte-capacity bound, FIFO eviction, and per-entry
/// freshness (entries past their TTL are *stale*: still present, but
/// only served when the origin cannot be reached).
struct ByteCache {
    entries: HashMap<u32, CacheEntry>,
    order: VecDeque<u32>,
    bytes: u64,
    capacity: u64,
    /// Requests that hit fresh content.
    pub hits: u64,
    /// Requests that missed (or found only a stale copy).
    pub misses: u64,
}

impl ByteCache {
    fn new(capacity: u64) -> Self {
        ByteCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    fn lookup(&mut self, file: u32, now: Cycles) -> CacheLookup {
        match self.entries.get(&file).copied() {
            Some(e) if e.fresh_until > now => {
                self.hits += 1;
                CacheLookup::Fresh(e.bytes)
            }
            Some(e) => {
                self.misses += 1;
                CacheLookup::Stale(e.bytes)
            }
            None => {
                self.misses += 1;
                CacheLookup::Miss
            }
        }
    }

    /// Any cached copy, fresh or stale, without touching the counters.
    fn stale_copy(&self, file: u32) -> Option<u64> {
        self.entries.get(&file).map(|e| e.bytes)
    }

    fn insert(&mut self, file: u32, bytes: u64, fresh_until: Cycles) {
        if let Some(e) = self.entries.get_mut(&file) {
            // Revalidated: refresh the TTL in place.
            e.fresh_until = fresh_until;
            return;
        }
        self.entries.insert(file, CacheEntry { bytes, fresh_until });
        self.order.push_back(file);
        self.bytes += bytes;
        while self.bytes > self.capacity {
            let Some(victim) = self.order.pop_front() else {
                break;
            };
            if let Some(e) = self.entries.remove(&victim) {
                self.bytes -= e.bytes;
            }
        }
    }
}

/// Shared proxy state.
pub struct ProxyShared {
    conns: HashMap<u64, ConnState>,
    cache: ByteCache,
    /// Bytes served to clients.
    pub served_bytes: u64,
    /// Requests served.
    pub served_reqs: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Requests answered from a stale cache entry because the origin
    /// stopped responding (`stale-if-error`).
    pub stale_served: u64,
    /// Origin fetches re-sent after a timeout.
    pub origin_retries: u64,
    /// Requests failed with an error page (origin down, nothing
    /// cached).
    pub failed: u64,
    /// Origin replies that arrived after their fetch had been retried
    /// or abandoned, and were discarded.
    pub late_replies: u64,
}

/// How a response written back to the client is accounted.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ServeKind {
    /// Normal content (fresh hit or origin fetch).
    Content,
    /// A stale cache entry served because the origin is down.
    Stale,
    /// An error page: origin down and nothing cached.
    Error,
}

/// An origin fetch the event loop is waiting on.
struct PendingFetch {
    file: u32,
    /// Resends already issued.
    attempts: u32,
    /// Virtual time after which this fetch is considered timed out.
    deadline: Cycles,
}

enum PState {
    Init,
    WaitMsg,
    AcceptDone {
        conn: u64,
    },
    ReadDone {
        conn: u64,
        file: u32,
    },
    ConnectDone {
        conn: u64,
        file: u32,
    },
    RetryDone {
        conn: u64,
        file: u32,
    },
    ReadReplyDone {
        conn: u64,
        file: u32,
        bytes: u64,
    },
    WriteDone {
        conn: u64,
        bytes: u64,
        kind: ServeKind,
    },
    Sent,
}

/// The `comm_poll` event-loop thread.
struct EventLoop {
    shared: Rc<RefCell<ProxyShared>>,
    poll: ChanId,
    origin: ChanId,
    f_accept: FrameId,
    f_read: FrameId,
    f_connect: FrameId,
    f_read_reply: FrameId,
    f_write: FrameId,
    /// Handler frame for an origin-fetch resend.
    f_retry: FrameId,
    /// Handler frame for serving a stale entry (the degraded path gets
    /// its own call path, so the profile shows it — Figure 9 style).
    f_stale: FrameId,
    /// Handler frame for writing an error page.
    f_error: FrameId,
    /// Outstanding origin fetches by connection.
    pending: HashMap<u64, PendingFetch>,
    /// Per-attempt origin timeout (doubles on every resend).
    timeout: Cycles,
    /// Resends before degrading.
    max_retries: u32,
    /// Freshness TTL newly fetched entries get.
    fresh_ttl: Cycles,
    state: PState,
}

impl EventLoop {
    /// Figure 4 lines 5–7: dispatch `handler` for the continuation
    /// `ev`, entering the handler's frame.
    fn dispatch(&self, cx: &mut ThreadCx<'_>, ev: Continuation, handler: FrameId) {
        cx.runtime().borrow_mut().on_resume(cx.me(), ev, handler);
        cx.push_frame(handler);
    }

    /// The handler returned: capture its continuation for `conn`.
    fn finish(&self, cx: &mut ThreadCx<'_>, conn: u64) -> Continuation {
        let ev = cx.runtime().borrow_mut().on_capture(cx.me());
        cx.runtime().borrow_mut().on_finish(cx.me());
        cx.pop_frame();
        if let Some(c) = self.shared.borrow_mut().conns.get_mut(&conn) {
            c.ev = ev;
        }
        ev
    }

    /// Waits on the poll channel — with a deadline when origin fetches
    /// are outstanding, plain otherwise (so idle runs still drain).
    fn wait_op(&self, now: Cycles) -> Op {
        match self.pending.values().map(|p| p.deadline).min() {
            Some(d) => Op::RecvTimeout(self.poll, d.saturating_sub(now).max(1)),
            None => Op::Recv(self.poll),
        }
    }

    /// The poll wait expired: find the most overdue fetch and either
    /// resend it (exponential backoff) or degrade — serve a stale copy
    /// if one exists, an error page otherwise.
    fn on_fetch_timeout(&mut self, cx: &mut ThreadCx<'_>) -> Op {
        let now = cx.now();
        let expired = self
            .pending
            .iter()
            .filter(|&(_, p)| p.deadline <= now)
            .min_by_key(|&(&c, p)| (p.deadline, c))
            .map(|(&c, _)| c);
        let Some(conn) = expired else {
            // Raced with a delivery that already cleared the fetch.
            self.state = PState::WaitMsg;
            return self.wait_op(now);
        };
        let ev = self.shared.borrow().conns[&conn].ev;
        let (file, attempts) = {
            let p = &self.pending[&conn];
            (p.file, p.attempts)
        };
        if attempts < self.max_retries {
            if let Some(p) = self.pending.get_mut(&conn) {
                p.attempts += 1;
                // Backoff: timeout, 2·timeout, 4·timeout, …
                p.deadline =
                    now.saturating_add(self.timeout.saturating_mul(1 << p.attempts.min(16)));
            }
            self.shared.borrow_mut().origin_retries += 1;
            self.dispatch(cx, ev, self.f_retry);
            self.state = PState::RetryDone { conn, file };
            Op::Compute(CONNECT_COST)
        } else {
            self.pending.remove(&conn);
            let stale = self.shared.borrow().cache.stale_copy(file);
            match stale {
                Some(bytes) => {
                    self.dispatch(cx, ev, self.f_stale);
                    self.state = PState::WriteDone {
                        conn,
                        bytes,
                        kind: ServeKind::Stale,
                    };
                    Op::Compute(WRITE_BASE + bytes * WRITE_PER_BYTE)
                }
                None => {
                    self.dispatch(cx, ev, self.f_error);
                    self.state = PState::WriteDone {
                        conn,
                        bytes: 0,
                        kind: ServeKind::Error,
                    };
                    Op::Compute(WRITE_BASE)
                }
            }
        }
    }
}

impl ThreadBody for EventLoop {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match std::mem::replace(&mut self.state, PState::WaitMsg) {
            PState::Init => {
                cx.push_frame(cx.frame("comm_poll"));
                self.state = PState::WaitMsg;
                Op::Recv(self.poll)
            }
            PState::WaitMsg => {
                let msg = match wake {
                    Wake::Received(msg) => msg,
                    Wake::RecvTimedOut => return self.on_fetch_timeout(cx),
                    _ => unreachable!("event loop waits on the poll channel"),
                };
                match msg.take::<ProxyMsg>() {
                    ProxyMsg::NewConn { conn, reply } => {
                        self.shared.borrow_mut().conns.insert(
                            conn,
                            ConnState {
                                reply,
                                ev: Continuation::default(),
                            },
                        );
                        self.dispatch(cx, Continuation::default(), self.f_accept);
                        self.state = PState::AcceptDone { conn };
                        Op::Compute(ACCEPT_COST)
                    }
                    ProxyMsg::Request { conn, file } => {
                        let ev = self.shared.borrow().conns[&conn].ev;
                        self.dispatch(cx, ev, self.f_read);
                        self.state = PState::ReadDone { conn, file };
                        Op::Compute(READ_REQ_COST)
                    }
                    ProxyMsg::OriginData { conn, file, bytes } => {
                        let live = self.pending.get(&conn).is_some_and(|p| p.file == file);
                        if !live {
                            // A reply for a fetch we retried or gave
                            // up on — the connection has moved on.
                            self.shared.borrow_mut().late_replies += 1;
                            self.state = PState::WaitMsg;
                            return self.wait_op(cx.now());
                        }
                        self.pending.remove(&conn);
                        let ev = self.shared.borrow().conns[&conn].ev;
                        self.dispatch(cx, ev, self.f_read_reply);
                        self.state = PState::ReadReplyDone { conn, file, bytes };
                        Op::Compute(READ_REPLY_BASE + bytes * READ_REPLY_PER_BYTE)
                    }
                }
            }
            PState::AcceptDone { conn } => {
                self.finish(cx, conn);
                self.state = PState::WaitMsg;
                self.wait_op(cx.now())
            }
            PState::ReadDone { conn, file } => {
                let ev = self.finish(cx, conn);
                let hit = self.shared.borrow_mut().cache.lookup(file, cx.now());
                match hit {
                    CacheLookup::Fresh(bytes) => {
                        self.shared.borrow_mut().hits += 1;
                        self.dispatch(cx, ev, self.f_write);
                        self.state = PState::WriteDone {
                            conn,
                            bytes,
                            kind: ServeKind::Content,
                        };
                        Op::Compute(WRITE_BASE + bytes * WRITE_PER_BYTE)
                    }
                    CacheLookup::Stale(_) | CacheLookup::Miss => {
                        self.shared.borrow_mut().misses += 1;
                        self.dispatch(cx, ev, self.f_connect);
                        self.state = PState::ConnectDone { conn, file };
                        Op::Compute(CONNECT_COST)
                    }
                }
            }
            PState::ConnectDone { conn, file } => {
                self.finish(cx, conn);
                self.pending.insert(
                    conn,
                    PendingFetch {
                        file,
                        attempts: 0,
                        deadline: cx.now().saturating_add(self.timeout),
                    },
                );
                self.state = PState::Sent;
                Op::Send(
                    self.origin,
                    Msg::new(
                        OriginReq {
                            conn,
                            file,
                            reply: self.poll,
                        },
                        400,
                    ),
                )
            }
            PState::RetryDone { conn, file } => {
                self.finish(cx, conn);
                self.state = PState::Sent;
                Op::Send(
                    self.origin,
                    Msg::new(
                        OriginReq {
                            conn,
                            file,
                            reply: self.poll,
                        },
                        400,
                    ),
                )
            }
            PState::ReadReplyDone { conn, file, bytes } => {
                let ev = self.finish(cx, conn);
                let fresh_until = cx.now().saturating_add(self.fresh_ttl);
                self.shared
                    .borrow_mut()
                    .cache
                    .insert(file, bytes, fresh_until);
                self.dispatch(cx, ev, self.f_write);
                self.state = PState::WriteDone {
                    conn,
                    bytes,
                    kind: ServeKind::Content,
                };
                Op::Compute(WRITE_BASE + bytes * WRITE_PER_BYTE)
            }
            PState::WriteDone { conn, bytes, kind } => {
                self.finish(cx, conn);
                let reply = self.shared.borrow().conns[&conn].reply;
                {
                    let mut sh = self.shared.borrow_mut();
                    match kind {
                        ServeKind::Content => {
                            sh.served_bytes += bytes;
                            sh.served_reqs += 1;
                        }
                        ServeKind::Stale => {
                            sh.served_bytes += bytes;
                            sh.served_reqs += 1;
                            sh.stale_served += 1;
                        }
                        ServeKind::Error => sh.failed += 1,
                    }
                }
                self.state = PState::Sent;
                Op::Send(reply, Msg::new(bytes, bytes.max(40)))
            }
            PState::Sent => {
                self.state = PState::WaitMsg;
                self.wait_op(cx.now())
            }
        }
    }
}

/// Origin-server worker: returns file content with a small compute.
struct OriginWorker {
    in_chan: ChanId,
    sizes: Rc<Vec<u64>>,
    f_main: FrameId,
    state: OState,
}

enum OState {
    Init,
    WaitReq,
    Serve { req: Option<OriginReq> },
    Sent,
}

impl ThreadBody for OriginWorker {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match std::mem::replace(&mut self.state, OState::WaitReq) {
            OState::Init => {
                cx.push_frame(self.f_main);
                self.state = OState::WaitReq;
                Op::Recv(self.in_chan)
            }
            OState::WaitReq => {
                let Wake::Received(msg) = wake else {
                    unreachable!("origin waits for requests");
                };
                let req = msg.take::<OriginReq>();
                let bytes = self.sizes[req.file as usize];
                self.state = OState::Serve { req: Some(req) };
                Op::Compute(80_000 + bytes * 12)
            }
            OState::Serve { req } => {
                let r = req.expect("request present");
                let bytes = self.sizes[r.file as usize];
                self.state = OState::Sent;
                Op::Send(
                    r.reply,
                    Msg::new(
                        ProxyMsg::OriginData {
                            conn: r.conn,
                            file: r.file,
                            bytes,
                        },
                        bytes,
                    ),
                )
            }
            OState::Sent => {
                self.state = OState::WaitReq;
                Op::Recv(self.in_chan)
            }
        }
    }
}

/// A closed-loop proxy client: per connection, send the requests one
/// at a time, waiting for each response.
struct ProxyClient {
    trace: WebTrace,
    proxy: ChanId,
    reply: ChanId,
    conn_seq: u64,
    id: u64,
    state: ClState,
}

enum ClState {
    OpenConn,
    SendReq { left: Vec<u32>, conn: u64 },
    WaitResp { left: Vec<u32>, conn: u64 },
}

impl ProxyClient {
    fn new_conn_files(&mut self) -> Vec<u32> {
        let mut files = Vec::new();
        loop {
            let r = self.trace.next_request();
            files.push(r.file);
            if r.last_on_connection {
                break;
            }
        }
        files.reverse();
        files
    }
}

impl ThreadBody for ProxyClient {
    fn resume(&mut self, _cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        loop {
            match std::mem::replace(&mut self.state, ClState::OpenConn) {
                ClState::OpenConn => {
                    let files = self.new_conn_files();
                    self.conn_seq += 1;
                    let conn = (self.id << 32) | self.conn_seq;
                    self.state = ClState::SendReq { left: files, conn };
                    return Op::Send(
                        self.proxy,
                        Msg::new(
                            ProxyMsg::NewConn {
                                conn,
                                reply: self.reply,
                            },
                            300,
                        ),
                    );
                }
                ClState::SendReq { mut left, conn } => {
                    // Entered with Wake::Done from the previous send.
                    match left.pop() {
                        Some(file) => {
                            self.state = ClState::WaitResp { left, conn };
                            return Op::Send(
                                self.proxy,
                                Msg::new(ProxyMsg::Request { conn, file }, 350),
                            );
                        }
                        None => {
                            self.state = ClState::OpenConn;
                            continue;
                        }
                    }
                }
                ClState::WaitResp { left, conn } => match wake {
                    Wake::Done => {
                        self.state = ClState::WaitResp { left, conn };
                        return Op::Recv(self.reply);
                    }
                    Wake::Received(_) => {
                        self.state = ClState::SendReq { left, conn };
                        continue;
                    }
                    _ => unreachable!("client waits for responses"),
                },
            }
        }
    }
}

/// Proxy experiment configuration.
#[derive(Clone, Debug)]
pub struct ProxyConfig {
    /// Closed-loop clients.
    pub clients: u32,
    /// Profiler installed in the proxy process.
    pub rt: RtKind,
    /// Virtual run duration.
    pub duration: Cycles,
    /// Trace parameters.
    pub trace: WebTraceConfig,
    /// Per-attempt origin-fetch timeout (doubles per resend).
    pub origin_timeout: Cycles,
    /// Origin-fetch resends before degrading to stale/error.
    pub origin_retries: u32,
    /// Freshness TTL of fetched entries; `Cycles::MAX` (the default)
    /// means entries never go stale.
    pub fresh_ttl: Cycles,
    /// Optional seeded faults (`None` = fault-free): `front` is the
    /// poll channel clients and the origin send into, `backbone` the
    /// proxy → origin channel, and the origin is the victim process and
    /// machine.
    pub faults: Option<ScenarioFaults>,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            clients: 24,
            rt: RtKind::Whodunit,
            duration: 20 * CPU_HZ,
            trace: WebTraceConfig {
                files: 5000,
                ..WebTraceConfig::default()
            },
            origin_timeout: ms_to_cycles(50.0),
            origin_retries: 3,
            fresh_ttl: Cycles::MAX,
            faults: None,
        }
    }
}

/// Results of one proxy run.
pub struct ProxyReport {
    /// Client-facing throughput in Mb/s.
    pub throughput_mbps: f64,
    /// Requests served.
    pub reqs: u64,
    /// Request hit fraction.
    pub hit_rate: f64,
    /// Requests served from stale entries with the origin down.
    pub stale_served: u64,
    /// Origin fetches re-sent after a timeout.
    pub origin_retries: u64,
    /// Requests failed with an error page.
    pub failed: u64,
    /// Late origin replies discarded.
    pub late_replies: u64,
    /// The proxy process runtime.
    pub runtime: ProcRuntime,
    /// Virtual duration.
    pub duration: Cycles,
    /// How the run ended; only a `ReachedLimit` or `Idle` run's numbers
    /// are those of the whole configured duration.
    pub outcome: RunOutcome,
}

/// Runs the Squid-like proxy with an origin server behind it.
pub fn run_proxy(cfg: ProxyConfig) -> ProxyReport {
    let mut sim = Sim::new(SimConfig::default());
    sim.set_step_budget(Some(STEP_BUDGET));
    let proxy_m = sim.add_machine(1);
    let origin_m = sim.add_machine(2);
    let client_m = sim.add_machine(8);

    let pr = make_runtime(
        cfg.rt,
        whodunit_core::ids::ProcId(0),
        "squid",
        sim.frames().clone(),
    );
    let proxy_proc = sim.add_process(pr.rt.clone());
    let origin_proc = sim.add_unprofiled_process();
    let client_proc = sim.add_unprofiled_process();

    let poll = sim.add_channel(240_000, 20);
    let origin_chan = sim.add_channel(240_000, 20);

    let shared = Rc::new(RefCell::new(ProxyShared {
        conns: HashMap::new(),
        cache: ByteCache::new(CACHE_BYTES),
        served_bytes: 0,
        served_reqs: 0,
        hits: 0,
        misses: 0,
        stale_served: 0,
        origin_retries: 0,
        failed: 0,
        late_replies: 0,
    }));

    let f_accept = sim.frame("httpAccept");
    let f_read = sim.frame("clientReadRequest");
    let f_connect = sim.frame("commConnectHandle");
    let f_read_reply = sim.frame("httpReadReply");
    let f_write = sim.frame("commHandleWrite");
    let f_retry = sim.frame("commRetryOrigin");
    let f_stale = sim.frame("httpServeStale");
    let f_error = sim.frame("httpRequestError");

    if let Some(fs) = cfg.faults {
        sim.set_fault_plan(fs.plan(poll, origin_chan, origin_proc, origin_m));
    }

    sim.spawn(
        proxy_proc,
        proxy_m,
        "comm_poll",
        Box::new(EventLoop {
            shared: shared.clone(),
            poll,
            origin: origin_chan,
            f_accept,
            f_read,
            f_connect,
            f_read_reply,
            f_write,
            f_retry,
            f_stale,
            f_error,
            pending: HashMap::new(),
            timeout: cfg.origin_timeout,
            max_retries: cfg.origin_retries,
            fresh_ttl: cfg.fresh_ttl,
            state: PState::Init,
        }),
    );

    // The origin serves the shared file population.
    let master = WebTrace::new(cfg.trace.clone());
    let sizes: Rc<Vec<u64>> = Rc::new(
        (0..master.files())
            .map(|f| master.file_size(f as u32))
            .collect(),
    );
    let f_origin = sim.frame("origin_serve");
    for i in 0..4 {
        sim.spawn(
            origin_proc,
            origin_m,
            &format!("origin{i}"),
            Box::new(OriginWorker {
                in_chan: origin_chan,
                sizes: sizes.clone(),
                f_main: f_origin,
                state: OState::Init,
            }),
        );
    }

    for i in 0..cfg.clients {
        let reply = sim.add_channel(240_000, 20);
        let mut tc = cfg.trace.clone();
        tc.stream = i as u64 + 1;
        sim.spawn(
            client_proc,
            client_m,
            &format!("client{i}"),
            Box::new(ProxyClient {
                trace: WebTrace::new(tc),
                proxy: poll,
                reply,
                conn_seq: 0,
                id: i as u64,
                state: ClState::OpenConn,
            }),
        );
    }

    let outcome = sim.run_until(cfg.duration);

    let sh = shared.borrow();
    let hit_rate = if sh.hits + sh.misses == 0 {
        0.0
    } else {
        sh.hits as f64 / (sh.hits + sh.misses) as f64
    };
    ProxyReport {
        throughput_mbps: mbps(sh.served_bytes, cfg.duration),
        reqs: sh.served_reqs,
        hit_rate,
        stale_served: sh.stale_served,
        origin_retries: sh.origin_retries,
        failed: sh.failed,
        late_replies: sh.late_replies,
        runtime: pr,
        duration: cfg.duration,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FOREVER: Cycles = Cycles::MAX;

    #[test]
    fn byte_cache_evicts_fifo_at_capacity() {
        let mut c = ByteCache::new(100);
        c.insert(1, 60, FOREVER);
        c.insert(2, 30, FOREVER);
        assert_eq!(c.lookup(1, 0), CacheLookup::Fresh(60));
        // Third insert overflows: the oldest entry goes.
        c.insert(3, 50, FOREVER);
        assert_eq!(c.lookup(1, 0), CacheLookup::Miss, "file 1 evicted");
        assert_eq!(c.lookup(2, 0), CacheLookup::Fresh(30));
        assert_eq!(c.lookup(3, 0), CacheLookup::Fresh(50));
        assert_eq!(c.hits, 3);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn byte_cache_reinsert_is_idempotent() {
        let mut c = ByteCache::new(100);
        c.insert(1, 40, FOREVER);
        c.insert(1, 40, FOREVER);
        assert_eq!(c.bytes, 40);
    }

    #[test]
    fn byte_cache_entries_go_stale_and_refresh() {
        let mut c = ByteCache::new(100);
        c.insert(1, 40, 1000);
        assert_eq!(c.lookup(1, 999), CacheLookup::Fresh(40));
        assert_eq!(c.lookup(1, 1000), CacheLookup::Stale(40), "TTL expired");
        assert_eq!(c.stale_copy(1), Some(40), "the copy is still there");
        // Revalidation refreshes the TTL in place.
        c.insert(1, 40, 2000);
        assert_eq!(c.lookup(1, 1500), CacheLookup::Fresh(40));
        assert_eq!(c.bytes, 40);
    }

    fn quick(rt: RtKind) -> ProxyReport {
        run_proxy(ProxyConfig {
            clients: 12,
            duration: 5 * CPU_HZ,
            rt,
            ..ProxyConfig::default()
        })
    }

    #[test]
    fn proxy_serves_and_caches() {
        let r = quick(RtKind::Whodunit);
        assert_eq!(r.outcome, RunOutcome::ReachedLimit);
        assert!(r.reqs > 200, "reqs {}", r.reqs);
        assert!(r.hit_rate > 0.3, "hit rate {}", r.hit_rate);
        assert!(r.hit_rate < 0.999);
    }

    #[test]
    fn write_handler_appears_in_two_contexts() {
        // Figure 9's headline: commHandleWrite under the hit context
        // [httpAccept, clientReadRequest, commHandleWrite] and the miss
        // context [... commConnectHandle, httpReadReply, commHandleWrite].
        let r = quick(RtKind::Whodunit);
        let w = r.runtime.whodunit.as_ref().unwrap().borrow();
        let ctxs: Vec<String> = w
            .profiled_contexts()
            .iter()
            .map(|&c| w.ctx_string(c))
            .collect();
        let hit = ctxs
            .iter()
            .any(|s| s == "httpAccept -> clientReadRequest -> commHandleWrite");
        let miss = ctxs.iter().any(|s| {
            s == "httpAccept -> clientReadRequest -> commConnectHandle -> httpReadReply -> commHandleWrite"
        });
        assert!(hit, "hit context missing: {ctxs:?}");
        assert!(miss, "miss context missing: {ctxs:?}");
    }

    #[test]
    fn persistent_connections_prune_loops() {
        // Later requests on a connection re-dispatch clientReadRequest
        // after commHandleWrite; pruning keeps every context's handler
        // list duplicate-free.
        let r = quick(RtKind::Whodunit);
        let w = r.runtime.whodunit.as_ref().unwrap().borrow();
        for &c in &w.profiled_contexts() {
            let s = w.ctx_string(c);
            let parts: Vec<&str> = s.split(" -> ").collect();
            let mut dedup = parts.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), parts.len(), "looping context {s}");
        }
    }

    #[test]
    fn crashed_origin_serves_stale_under_its_own_context() {
        // The origin dies mid-run. Entries go stale on a short TTL, so
        // revalidations start failing: after the retries burn out the
        // proxy serves the stale copy (stale-if-error) under the
        // httpServeStale handler — the degraded path is visible in the
        // profile — and uncached files fail with an error page.
        let r = run_proxy(ProxyConfig {
            clients: 12,
            duration: 10 * CPU_HZ,
            fresh_ttl: 2 * CPU_HZ,
            origin_timeout: ms_to_cycles(20.0),
            faults: Some(ScenarioFaults {
                seed: 0x5eed,
                crash_at: Some(5 * CPU_HZ),
                ..ScenarioFaults::default()
            }),
            ..ProxyConfig::default()
        });
        assert!(r.origin_retries > 0, "dead origin forces retries");
        assert!(r.stale_served > 0, "stale entries keep being served");
        assert!(r.failed > 0, "cold files fail instead of hanging");
        assert!(r.reqs > 100, "the proxy keeps serving: {}", r.reqs);
        // The exact run at fault seed 0x5eed.
        assert_eq!(
            (r.reqs, r.origin_retries, r.stale_served, r.failed),
            (8656, 612, 140, 52)
        );
        let w = r.runtime.whodunit.as_ref().unwrap().borrow();
        let ctxs: Vec<String> = w
            .profiled_contexts()
            .iter()
            .map(|&c| w.ctx_string(c))
            .collect();
        assert!(
            ctxs.iter().any(|s| s.contains("httpServeStale")),
            "degraded path has its own context: {ctxs:?}"
        );
        assert!(
            ctxs.iter().any(|s| s.contains("commRetryOrigin")),
            "retries appear in the profile: {ctxs:?}"
        );
    }

    #[test]
    fn dropped_origin_requests_recover_via_retry() {
        // A third of origin-bound fetches vanish; backoff resends keep
        // the miss path alive and nothing ends up stuck.
        let r = run_proxy(ProxyConfig {
            clients: 12,
            duration: 8 * CPU_HZ,
            origin_timeout: ms_to_cycles(20.0),
            faults: Some(ScenarioFaults {
                seed: 0x5eed,
                backbone: whodunit_sim::ChannelFaults {
                    drop_p: 0.33,
                    ..Default::default()
                },
                ..ScenarioFaults::default()
            }),
            ..ProxyConfig::default()
        });
        assert!(r.origin_retries > 0, "drops surfaced as retries");
        assert!(r.reqs > 100, "served through the loss: {}", r.reqs);
        assert!(
            r.failed < r.reqs / 10,
            "few requests exhaust 3 retries: {} of {}",
            r.failed,
            r.reqs
        );
        // The exact run at fault seed 0x5eed.
        assert_eq!(
            (r.reqs, r.origin_retries, r.stale_served, r.failed),
            (13157, 1601, 6, 36)
        );
    }

    #[test]
    fn profiling_overhead_is_moderate() {
        let base = quick(RtKind::None);
        let prof = quick(RtKind::Whodunit);
        let oh = 1.0 - prof.throughput_mbps / base.throughput_mbps;
        assert!(oh < 0.15, "overhead {:.1}%", oh * 100.0);
        assert!(base.throughput_mbps > 0.0);
    }
}
