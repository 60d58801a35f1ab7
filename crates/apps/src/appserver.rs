//! Tomcat-like servlet container (§8.4).
//!
//! A pool of worker threads serves page requests; each TPC-W
//! interaction is implemented by its own servlet (a distinct call-path
//! frame, which is what lets Whodunit extend a separate transaction
//! context from Tomcat to MySQL per interaction). A servlet computes,
//! issues its database RPC, renders, and replies.
//!
//! With [`AppServerConfig::caching`] enabled, the BestSellers and
//! SearchResult servlets cache their query results for 30 seconds
//! (TPC-W clause 6.3.3.1), the optimization Figures 11/12 evaluate.

use crate::dbserver::{DbReply, DbReq};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use whodunit_core::cost::{ms_to_cycles, CPU_HZ};
use whodunit_core::frame::FrameId;
use whodunit_core::ids::ChanId;
use whodunit_sim::{Cycles, Msg, Op, Sim, ThreadBody, ThreadCx, Wake};
use whodunit_workload::Interaction;

/// A page request from the tier above (squid).
#[derive(Debug)]
pub struct PageReq {
    /// The interaction to execute.
    pub interaction: Interaction,
    /// Key for caches/rows (subject id, search term, item row…).
    pub key: u64,
    /// Routing tag the requester uses to match the reply.
    pub tag: u64,
    /// Channel to reply on.
    pub reply: ChanId,
}

/// A static-content request (image/thumbnail; §8.4's static content).
#[derive(Debug)]
pub struct StaticReq {
    /// Object id.
    pub id: u64,
    /// Channel to reply on.
    pub reply: ChanId,
}

/// A static object.
#[derive(Debug)]
pub struct StaticReply {
    /// Object id.
    pub id: u64,
    /// Object size in bytes.
    pub bytes: u64,
}

/// Bytes per static image.
pub const IMAGE_BYTES: u64 = 4 * 1024;

/// A rendered page.
#[derive(Debug)]
pub struct PageReply {
    /// The interaction that was executed.
    pub interaction: Interaction,
    /// The requester's routing tag.
    pub tag: u64,
    /// `false` when the server shed the request (its database RPC
    /// exhausted the timeout/retry budget) and the page is an error
    /// page rather than a result.
    pub ok: bool,
}

/// Application-server configuration.
#[derive(Clone, Copy, Debug)]
pub struct AppServerConfig {
    /// Worker threads.
    pub workers: u32,
    /// Enable the §8.4 result caching optimization.
    pub caching: bool,
    /// How long a worker waits for its database reply before
    /// resending. Generous by default so healthy runs never time out.
    pub db_timeout: Cycles,
    /// Server-wide budget of resends; once spent, timed-out requests
    /// are shed immediately instead of retried (retry storms under a
    /// dead database would otherwise triple its queue).
    pub retry_budget: u64,
}

impl Default for AppServerConfig {
    fn default() -> Self {
        AppServerConfig {
            workers: 96,
            caching: false,
            db_timeout: 30 * CPU_HZ,
            retry_budget: 1 << 20,
        }
    }
}

/// CPU cost of servlet logic per request (5 ms).
const SERVLET_COST: Cycles = 5 * CPU_HZ / 1_000;
/// CPU cost of rendering the response (1 ms).
const RENDER_COST: Cycles = CPU_HZ / 1_000;
/// Result-cache TTL (TPC-W allows 30 s).
const CACHE_TTL: Cycles = 30 * CPU_HZ;
/// Resend attempts per request after the first send.
const DB_RETRIES: u32 = 2;

/// Internal calls per servlet cycle (drives the gprof baseline; Java
/// servlet code is call-dense).
pub const CYCLES_PER_CALL: u64 = 700;

/// Shared application-server state.
pub struct AppShared {
    cfg: AppServerConfig,
    /// `(interaction, key)` → cache-entry expiry time.
    cache: HashMap<(Interaction, u64), Cycles>,
    /// Database queries issued.
    pub db_queries: u64,
    /// Cache hits (queries avoided).
    pub cache_hits: u64,
    /// Pages served.
    pub pages: u64,
    /// Database RPC timeouts fired.
    pub db_timeouts: u64,
    /// Database RPC resends (consumed from [`AppServerConfig::retry_budget`]).
    pub db_retries_used: u64,
    /// Requests shed with an error page.
    pub sheds: u64,
    /// Replies that arrived after their request had been timed out
    /// (recognized by the [`DbReq::tag`] echo and discarded).
    pub late_db_replies: u64,
}

impl AppShared {
    fn cacheable(&self, i: Interaction) -> bool {
        self.cfg.caching && matches!(i, Interaction::BestSellers | Interaction::SearchResult)
    }

    fn cache_lookup(&mut self, i: Interaction, key: u64, now: Cycles) -> bool {
        if !self.cacheable(i) {
            return false;
        }
        match self.cache.get(&(i, key)) {
            Some(&expiry) if expiry > now => {
                self.cache_hits += 1;
                true
            }
            _ => false,
        }
    }

    fn cache_insert(&mut self, i: Interaction, key: u64, now: Cycles) {
        if self.cacheable(i) {
            self.cache.insert((i, key), now + CACHE_TTL);
        }
    }

    /// Consumes one resend from the server-wide budget; `false` means
    /// the budget is spent and the caller must shed instead.
    fn try_take_retry(&mut self) -> bool {
        if self.db_retries_used < self.cfg.retry_budget {
            self.db_retries_used += 1;
            true
        } else {
            false
        }
    }
}

enum SState {
    Init,
    WaitReq,
    Serviced(Option<PageReq>),
    WaitDb {
        req: Option<PageReq>,
        /// Resends already issued for this request.
        attempts: u32,
        /// Tag of the outstanding [`DbReq`]; replies carrying an older
        /// tag are late duplicates and are discarded.
        tag: u64,
    },
    Rendered {
        req: Option<PageReq>,
        ok: bool,
    },
    StaticServed(Option<StaticReq>),
    Replied,
}

struct ServletWorker {
    shared: Rc<RefCell<AppShared>>,
    in_chan: ChanId,
    db_chan: ChanId,
    db_reply: ChanId,
    f_main: FrameId,
    f_servlets: HashMap<Interaction, FrameId>,
    f_call: FrameId,
    f_static: FrameId,
    /// Monotonic source of [`DbReq::tag`] values for this worker.
    next_tag: u64,
    state: SState,
}

impl ThreadBody for ServletWorker {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match std::mem::replace(&mut self.state, SState::WaitReq) {
            SState::Init => {
                cx.push_frame(self.f_main);
                self.state = SState::WaitReq;
                Op::Recv(self.in_chan)
            }
            SState::WaitReq => {
                let Wake::Received(msg) = wake else {
                    unreachable!("servlet worker waits for requests");
                };
                match msg.try_take::<PageReq>() {
                    Ok(req) => {
                        cx.push_frame(self.f_servlets[&req.interaction]);
                        cx.count_calls(self.f_call, SERVLET_COST / CYCLES_PER_CALL);
                        self.state = SState::Serviced(Some(req));
                        Op::Compute(SERVLET_COST)
                    }
                    Err(msg) => {
                        // Static content: served from disk, no DB.
                        let req = msg.take::<StaticReq>();
                        cx.push_frame(self.f_static);
                        self.state = SState::StaticServed(Some(req));
                        Op::Compute(ms_to_cycles(0.3))
                    }
                }
            }
            SState::StaticServed(req) => {
                let r = req.expect("static request present");
                cx.pop_frame();
                self.state = SState::Replied;
                Op::Send(
                    r.reply,
                    Msg::new(
                        StaticReply {
                            id: r.id,
                            bytes: IMAGE_BYTES,
                        },
                        IMAGE_BYTES,
                    ),
                )
            }
            SState::Serviced(req) => {
                let r = req.as_ref().expect("request present");
                let hit = self
                    .shared
                    .borrow_mut()
                    .cache_lookup(r.interaction, r.key, cx.now());
                if hit {
                    self.state = SState::Rendered { req, ok: true };
                    Op::Compute(RENDER_COST)
                } else {
                    self.shared.borrow_mut().db_queries += 1;
                    self.next_tag += 1;
                    let tag = self.next_tag;
                    let db_req = DbReq {
                        interaction: r.interaction,
                        row: r.key,
                        tag,
                        reply: self.db_reply,
                    };
                    self.state = SState::WaitDb {
                        req,
                        attempts: 0,
                        tag,
                    };
                    Op::Send(self.db_chan, Msg::new(db_req, 600))
                }
            }
            SState::WaitDb { req, attempts, tag } => match wake {
                Wake::Done => {
                    let timeout = self.shared.borrow().cfg.db_timeout;
                    self.state = SState::WaitDb { req, attempts, tag };
                    Op::RecvTimeout(self.db_reply, timeout)
                }
                Wake::Received(msg) => {
                    let rep = msg.take::<DbReply>();
                    if rep.tag != tag {
                        // A reply to an attempt we already timed out
                        // on; the current attempt is still in flight.
                        let timeout = self.shared.borrow().cfg.db_timeout;
                        self.shared.borrow_mut().late_db_replies += 1;
                        self.state = SState::WaitDb { req, attempts, tag };
                        return Op::RecvTimeout(self.db_reply, timeout);
                    }
                    let r = req.as_ref().expect("request present");
                    self.shared
                        .borrow_mut()
                        .cache_insert(r.interaction, r.key, cx.now());
                    self.state = SState::Rendered { req, ok: true };
                    Op::Compute(RENDER_COST)
                }
                Wake::RecvTimedOut => {
                    let retry = {
                        let mut sh = self.shared.borrow_mut();
                        sh.db_timeouts += 1;
                        attempts < DB_RETRIES && sh.try_take_retry()
                    };
                    if retry {
                        let r = req.as_ref().expect("request present");
                        self.next_tag += 1;
                        let tag = self.next_tag;
                        let db_req = DbReq {
                            interaction: r.interaction,
                            row: r.key,
                            tag,
                            reply: self.db_reply,
                        };
                        self.state = SState::WaitDb {
                            req,
                            attempts: attempts + 1,
                            tag,
                        };
                        Op::Send(self.db_chan, Msg::new(db_req, 600))
                    } else {
                        // Shed: render a cheap error page instead of
                        // waiting on a database that is not answering.
                        self.shared.borrow_mut().sheds += 1;
                        self.state = SState::Rendered { req, ok: false };
                        Op::Compute(ms_to_cycles(0.1))
                    }
                }
                _ => unreachable!("WaitDb sees send-done, reply, or timeout"),
            },
            SState::Rendered { req, ok } => {
                let r = req.expect("request present");
                cx.pop_frame();
                if ok {
                    self.shared.borrow_mut().pages += 1;
                }
                self.state = SState::Replied;
                Op::Send(
                    r.reply,
                    Msg::new(
                        PageReply {
                            interaction: r.interaction,
                            tag: r.tag,
                            ok,
                        },
                        8 * 1024,
                    ),
                )
            }
            SState::Replied => {
                self.state = SState::WaitReq;
                Op::Recv(self.in_chan)
            }
        }
    }
}

/// Handles returned by [`build_appserver`].
pub struct AppHandles {
    /// The page-request channel.
    pub req_chan: ChanId,
    /// Shared state (cache stats).
    pub shared: Rc<RefCell<AppShared>>,
}

/// Builds the application-server tier into `sim`.
pub fn build_appserver(
    sim: &mut Sim,
    proc: whodunit_core::ids::ProcId,
    machine: whodunit_sim::MachineId,
    db_chan: ChanId,
    cfg: AppServerConfig,
) -> AppHandles {
    let shared = Rc::new(RefCell::new(AppShared {
        cfg,
        cache: HashMap::new(),
        db_queries: 0,
        cache_hits: 0,
        pages: 0,
        db_timeouts: 0,
        db_retries_used: 0,
        sheds: 0,
        late_db_replies: 0,
    }));
    let req_chan = sim.add_channel(240_000, 20);
    let f_main = sim.frame("tomcat_service");
    let f_call = sim.frame("servlet_internal");
    let f_static = sim.frame("default_servlet_static");
    let mut f_servlets = HashMap::new();
    for it in Interaction::ALL {
        f_servlets.insert(it, sim.frame(it.servlet()));
    }
    for i in 0..cfg.workers {
        let db_reply = sim.add_channel(240_000, 20);
        sim.spawn(
            proc,
            machine,
            &format!("tomcat{i}"),
            Box::new(ServletWorker {
                shared: shared.clone(),
                in_chan: req_chan,
                db_chan,
                db_reply,
                f_main,
                f_servlets: f_servlets.clone(),
                f_call,
                f_static,
                next_tag: 0,
                state: SState::Init,
            }),
        );
    }
    AppHandles { req_chan, shared }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(caching: bool) -> AppShared {
        AppShared {
            cfg: AppServerConfig {
                caching,
                ..AppServerConfig::default()
            },
            cache: HashMap::new(),
            db_queries: 0,
            cache_hits: 0,
            pages: 0,
            db_timeouts: 0,
            db_retries_used: 0,
            sheds: 0,
            late_db_replies: 0,
        }
    }

    #[test]
    fn caching_disabled_never_hits() {
        let mut s = shared(false);
        s.cache_insert(Interaction::BestSellers, 1, 0);
        assert!(!s.cache_lookup(Interaction::BestSellers, 1, 1));
        assert_eq!(s.cache_hits, 0);
    }

    #[test]
    fn only_bestsellers_and_searchresult_are_cacheable() {
        let s = shared(true);
        assert!(s.cacheable(Interaction::BestSellers));
        assert!(s.cacheable(Interaction::SearchResult));
        assert!(!s.cacheable(Interaction::Home));
        assert!(!s.cacheable(Interaction::AdminConfirm));
    }

    #[test]
    fn entries_expire_after_ttl() {
        let mut s = shared(true);
        s.cache_insert(Interaction::BestSellers, 7, 1000);
        assert!(s.cache_lookup(Interaction::BestSellers, 7, 1000 + CACHE_TTL - 1));
        assert!(!s.cache_lookup(Interaction::BestSellers, 7, 1000 + CACHE_TTL));
        assert_eq!(s.cache_hits, 1);
    }

    #[test]
    fn keys_are_independent() {
        let mut s = shared(true);
        s.cache_insert(Interaction::SearchResult, 1, 0);
        assert!(!s.cache_lookup(Interaction::SearchResult, 2, 1));
        assert!(!s.cache_lookup(Interaction::BestSellers, 1, 1));
        assert!(s.cache_lookup(Interaction::SearchResult, 1, 1));
    }

    #[test]
    fn retry_budget_is_consumed_then_denied() {
        let mut s = shared(false);
        s.cfg.retry_budget = 2;
        assert!(s.try_take_retry());
        assert!(s.try_take_retry());
        assert!(!s.try_take_retry(), "budget of 2 denies the third resend");
        assert_eq!(s.db_retries_used, 2);
    }

    /// Sends one PageReq and records the reply's `ok` flag.
    struct Probe {
        app: ChanId,
        reply: ChanId,
        got: Rc<RefCell<Option<bool>>>,
        state: u8,
    }

    impl ThreadBody for Probe {
        fn resume(&mut self, _cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
            match self.state {
                0 => {
                    self.state = 1;
                    Op::Send(
                        self.app,
                        Msg::new(
                            PageReq {
                                interaction: Interaction::Home,
                                key: 1,
                                tag: 7,
                                reply: self.reply,
                            },
                            400,
                        ),
                    )
                }
                1 => {
                    self.state = 2;
                    Op::Recv(self.reply)
                }
                _ => {
                    let Wake::Received(msg) = wake else {
                        unreachable!("probe waits for its page");
                    };
                    let pr = msg.take::<PageReply>();
                    *self.got.borrow_mut() = Some(pr.ok);
                    Op::Exit
                }
            }
        }
    }

    /// Runs one request against an appserver whose DB channel nobody
    /// serves, so every attempt times out.
    fn run_against_dead_db(cfg: AppServerConfig) -> (Option<bool>, Rc<RefCell<AppShared>>) {
        let mut sim = whodunit_sim::Sim::new(whodunit_sim::SimConfig::default());
        let m = sim.add_machine(2);
        let proc = sim.add_unprofiled_process();
        let dead_db = sim.add_channel(240_000, 20);
        let app = build_appserver(&mut sim, proc, m, dead_db, cfg);
        let got = Rc::new(RefCell::new(None));
        let reply = sim.add_channel(240_000, 20);
        let driver = sim.add_unprofiled_process();
        sim.spawn(
            driver,
            m,
            "probe",
            Box::new(Probe {
                app: app.req_chan,
                reply,
                got: got.clone(),
                state: 0,
            }),
        );
        assert!(sim.run_to_idle().is_ok());
        let outcome = *got.borrow();
        (outcome, app.shared)
    }

    #[test]
    fn dead_db_times_out_retries_then_sheds() {
        let cfg = AppServerConfig {
            workers: 1,
            db_timeout: 1_000_000,
            ..AppServerConfig::default()
        };
        let (got, shared) = run_against_dead_db(cfg);
        assert_eq!(got, Some(false), "client gets an error page, not a hang");
        let sh = shared.borrow();
        assert_eq!(sh.db_timeouts, 3, "initial attempt plus two resends");
        assert_eq!(sh.db_retries_used, 2);
        assert_eq!(sh.sheds, 1);
        assert_eq!(sh.pages, 0, "an error page is not a served page");
    }

    #[test]
    fn exhausted_retry_budget_sheds_without_resending() {
        let cfg = AppServerConfig {
            workers: 1,
            db_timeout: 1_000_000,
            retry_budget: 0,
            ..AppServerConfig::default()
        };
        let (got, shared) = run_against_dead_db(cfg);
        assert_eq!(got, Some(false));
        let sh = shared.borrow();
        assert_eq!(sh.db_timeouts, 1, "no budget, no resend");
        assert_eq!(sh.db_retries_used, 0);
        assert_eq!(sh.sheds, 1);
    }
}
