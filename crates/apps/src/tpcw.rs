//! The TPC-W 3-tier assembly: squid → tomcat → mysql (§8.4).
//!
//! All requests flow through a Squid-like front tier to the Tomcat-like
//! servlet container and on to the MySQL-like database, each tier a
//! separate profiled process. Closed-loop emulated clients sample the
//! browsing mix with exponential think times and record per-interaction
//! response times.
//!
//! The front tier forwards every dynamic request through the *same*
//! call path, so — as §8.4 observes — it transfers the same transaction
//! context to Tomcat, and the per-interaction distinction arises from
//! Tomcat's per-servlet call paths; Whodunit then maintains separate
//! contexts (and crosstalk attribution) at MySQL for every interaction.

use crate::appserver::{
    build_appserver, AppHandles, AppServerConfig, PageReply, PageReq, StaticReply, StaticReq,
    IMAGE_BYTES,
};
use crate::dbserver::{build_dbserver, DbHandles, Engine};
use crate::metrics::{per_minute, MeanAcc};
use crate::rtconf::{make_runtime, ProcRuntime, RtKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use whodunit_core::cost::{cycles_to_ms, ms_to_cycles, CPU_HZ};
use whodunit_core::frame::FrameId;
use whodunit_core::ids::{ChanId, ProcId};
use whodunit_core::stitch::StageDump;
use whodunit_sim::{
    plant_livelock_pair, Cycles, Msg, Op, RunOutcome, ScenarioFaults, SchedulePolicy, Sim,
    SimConfig, ThreadBody, ThreadCx, Wake,
};
use whodunit_workload::{Interaction, Mix, TpcwMix};

/// Number of BestSellers subjects (cache key space).
pub const SUBJECTS: u64 = 24;

/// Messages arriving at the squid forwarder's poll channel.
#[derive(Debug)]
enum SquidMsg {
    FromClient {
        interaction: Interaction,
        key: u64,
        reply: ChanId,
    },
    /// A static image request (§8.4: Squid caches TPC-W's static
    /// content; only misses travel to Tomcat).
    ImageReq { id: u64, reply: ChanId },
}

/// Squid-tier shared state: the static-content cache.
#[derive(Debug, Default)]
pub struct SquidShared {
    img_cache: std::collections::HashSet<u64>,
    /// Image requests served from the cache.
    pub img_hits: u64,
    /// Image requests forwarded to Tomcat.
    pub img_misses: u64,
}

/// The squid front tier: a forwarding thread per worker. Every request
/// takes the same call path (client_http_request → forward), matching
/// §8.4's observation.
struct SquidWorker {
    shared: Rc<RefCell<SquidShared>>,
    in_chan: ChanId,
    tomcat: ChanId,
    my_reply: ChanId,
    f_main: FrameId,
    f_fwd: FrameId,
    f_img: FrameId,
    state: FState,
}

enum FState {
    Init,
    WaitMsg,
    Forward(Option<(Interaction, u64, ChanId)>),
    WaitTomcat(Option<ChanId>),
    Reply(Option<(Interaction, bool, ChanId)>),
    /// Serving an image from the cache.
    ImgHit(Option<(u64, ChanId)>),
    /// Fetching a missed image from Tomcat.
    ImgForward(Option<(u64, ChanId)>),
    WaitImg(Option<ChanId>),
    ImgReply(Option<(u64, ChanId)>),
    Done,
}

impl ThreadBody for SquidWorker {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match std::mem::replace(&mut self.state, FState::WaitMsg) {
            FState::Init => {
                cx.push_frame(self.f_main);
                self.state = FState::WaitMsg;
                Op::Recv(self.in_chan)
            }
            FState::WaitMsg => {
                let Wake::Received(msg) = wake else {
                    unreachable!("squid worker waits for client requests");
                };
                match msg.take::<SquidMsg>() {
                    SquidMsg::FromClient {
                        interaction,
                        key,
                        reply,
                    } => {
                        cx.push_frame(self.f_fwd);
                        self.state = FState::Forward(Some((interaction, key, reply)));
                        Op::Compute(ms_to_cycles(0.5))
                    }
                    SquidMsg::ImageReq { id, reply } => {
                        cx.push_frame(self.f_img);
                        if self.shared.borrow().img_cache.contains(&id) {
                            self.shared.borrow_mut().img_hits += 1;
                            self.state = FState::ImgHit(Some((id, reply)));
                            Op::Compute(ms_to_cycles(0.12))
                        } else {
                            self.shared.borrow_mut().img_misses += 1;
                            self.state = FState::ImgForward(Some((id, reply)));
                            Op::Compute(ms_to_cycles(0.2))
                        }
                    }
                }
            }
            FState::ImgHit(data) => {
                let (id, reply) = data.expect("image data");
                cx.pop_frame();
                self.state = FState::Done;
                Op::Send(
                    reply,
                    Msg::new(
                        StaticReply {
                            id,
                            bytes: IMAGE_BYTES,
                        },
                        IMAGE_BYTES,
                    ),
                )
            }
            FState::ImgForward(data) => {
                let (id, reply) = data.expect("image data");
                self.state = FState::WaitImg(Some(reply));
                Op::Send(
                    self.tomcat,
                    Msg::new(
                        StaticReq {
                            id,
                            reply: self.my_reply,
                        },
                        300,
                    ),
                )
            }
            FState::WaitImg(reply) => match wake {
                Wake::Done => {
                    self.state = FState::WaitImg(reply);
                    Op::Recv(self.my_reply)
                }
                Wake::Received(msg) => {
                    let sr = msg.take::<StaticReply>();
                    self.shared.borrow_mut().img_cache.insert(sr.id);
                    self.state = FState::ImgReply(Some((sr.id, reply.expect("client chan"))));
                    Op::Compute(ms_to_cycles(0.1))
                }
                _ => unreachable!("WaitImg sees send-done then reply"),
            },
            FState::ImgReply(data) => {
                let (id, reply) = data.expect("image data");
                cx.pop_frame();
                self.state = FState::Done;
                Op::Send(
                    reply,
                    Msg::new(
                        StaticReply {
                            id,
                            bytes: IMAGE_BYTES,
                        },
                        IMAGE_BYTES,
                    ),
                )
            }
            FState::Forward(data) => {
                let (interaction, key, reply) = data.expect("request data");
                let req = PageReq {
                    interaction,
                    key,
                    tag: 0,
                    reply: self.my_reply,
                };
                self.state = FState::WaitTomcat(Some(reply));
                Op::Send(self.tomcat, Msg::new(req, 500))
            }
            FState::WaitTomcat(reply) => match wake {
                Wake::Done => {
                    self.state = FState::WaitTomcat(reply);
                    Op::Recv(self.my_reply)
                }
                Wake::Received(msg) => {
                    let pr = msg.take::<PageReply>();
                    let client = reply.expect("client reply channel");
                    self.state = FState::Reply(Some((pr.interaction, pr.ok, client)));
                    Op::Compute(ms_to_cycles(0.3))
                }
                _ => unreachable!("WaitTomcat sees send-done then reply"),
            },
            FState::Reply(data) => {
                let (interaction, ok, client) = data.expect("reply data");
                cx.pop_frame();
                self.state = FState::Done;
                Op::Send(
                    client,
                    Msg::new(
                        PageReply {
                            interaction,
                            tag: 0,
                            ok,
                        },
                        8 * 1024,
                    ),
                )
            }
            FState::Done => {
                self.state = FState::WaitMsg;
                Op::Recv(self.in_chan)
            }
        }
    }
}

/// Per-interaction client-side measurements.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Response-time accumulators per interaction (cycles), measured
    /// after warmup.
    pub rt: HashMap<Interaction, MeanAcc>,
    /// Interactions completed after warmup.
    pub completed: u64,
    /// Error pages received (whole run, warmup included).
    pub errors: u64,
    /// Error pages classified per interaction.
    pub errors_by: HashMap<Interaction, u64>,
}

struct TpcwClient {
    mix: TpcwMix,
    rng: SmallRng,
    squid: ChanId,
    reply: ChanId,
    stats: Rc<RefCell<ClientStats>>,
    warmup: Cycles,
    search_terms: u64,
    images_per_page: u32,
    current: Option<(Interaction, Cycles)>,
    state: CState,
}

enum CState {
    Think,
    Sent,
    WaitReply,
    /// Fetching the page's static images (id base, remaining).
    FetchImage {
        base: u64,
        left: u32,
    },
    WaitImage {
        base: u64,
        left: u32,
    },
}

impl TpcwClient {
    fn draw_key(&mut self, i: Interaction) -> u64 {
        match i {
            Interaction::BestSellers => self.rng.gen_range(0..SUBJECTS),
            Interaction::SearchResult => {
                // Zipf-ish search terms: a hot head (popular subjects
                // and titles, highly cacheable within the 30 s TTL) and
                // a long tail of rare terms.
                if self.rng.gen::<f64>() < 0.70 {
                    self.rng.gen_range(0..30)
                } else {
                    30 + self.rng.gen_range(0..self.search_terms)
                }
            }
            _ => self.rng.gen::<u64>() >> 16,
        }
    }
}

impl ThreadBody for TpcwClient {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match std::mem::replace(&mut self.state, CState::Think) {
            CState::Think => {
                // After Start or after a completed interaction: think,
                // then issue the next request.
                if matches!(wake, Wake::Slept) {
                    let i = self.mix.next_interaction();
                    let key = self.draw_key(i);
                    self.current = Some((i, cx.now()));
                    self.state = CState::Sent;
                    Op::Send(
                        self.squid,
                        Msg::new(
                            SquidMsg::FromClient {
                                interaction: i,
                                key,
                                reply: self.reply,
                            },
                            400,
                        ),
                    )
                } else {
                    self.state = CState::Think;
                    Op::Sleep(self.mix.think_time())
                }
            }
            CState::Sent => {
                self.state = CState::WaitReply;
                Op::Recv(self.reply)
            }
            CState::WaitReply => {
                let Wake::Received(msg) = wake else {
                    unreachable!("client waits for its page");
                };
                let pr = msg.take::<PageReply>();
                let (i, started) = self.current.take().expect("in flight");
                debug_assert_eq!(pr.interaction, i);
                if !pr.ok {
                    // Classify the failure; errors never count as
                    // completions and never enter the RT statistics.
                    let mut st = self.stats.borrow_mut();
                    st.errors += 1;
                    *st.errors_by.entry(i).or_insert(0) += 1;
                } else if started >= self.warmup {
                    let mut st = self.stats.borrow_mut();
                    st.rt.entry(i).or_default().add(cx.now() - started);
                    st.completed += 1;
                }
                if self.images_per_page > 0 {
                    // The page embeds thumbnails; fetch them through
                    // squid's static-content cache.
                    let base = (self.rng.gen::<u64>() % 150) * 8;
                    self.state = CState::FetchImage {
                        base,
                        left: self.images_per_page,
                    };
                    // Fall through via an instant no-op sleep.
                    return Op::Sleep(1);
                }
                self.state = CState::Think;
                Op::Sleep(self.mix.think_time())
            }
            CState::FetchImage { base, left } => {
                if left == 0 {
                    self.state = CState::Think;
                    return Op::Sleep(self.mix.think_time());
                }
                self.state = CState::WaitImage { base, left };
                Op::Send(
                    self.squid,
                    Msg::new(
                        SquidMsg::ImageReq {
                            id: base + left as u64,
                            reply: self.reply,
                        },
                        300,
                    ),
                )
            }
            CState::WaitImage { base, left } => match wake {
                Wake::Done => {
                    self.state = CState::WaitImage { base, left };
                    Op::Recv(self.reply)
                }
                Wake::Received(_) => {
                    self.state = CState::FetchImage {
                        base,
                        left: left - 1,
                    };
                    // Continue immediately with the next image.
                    Op::Sleep(1)
                }
                _ => unreachable!("client waits for its image"),
            },
        }
    }
}

/// TPC-W experiment configuration.
#[derive(Clone, Debug)]
pub struct TpcwConfig {
    /// Concurrent emulated browsers.
    pub clients: u32,
    /// Database storage engine (Figure 11's MyISAM → InnoDB knob).
    pub engine: Engine,
    /// Servlet result caching (Figures 11–12's caching knob).
    pub caching: bool,
    /// Profiler installed in all three server tiers.
    pub rt: RtKind,
    /// Virtual run duration (including warmup).
    pub duration: Cycles,
    /// Measurements start after this much virtual time.
    pub warmup: Cycles,
    /// Distinct search terms (SearchResult cache key space).
    pub search_terms: u64,
    /// Static images fetched per page (through squid's cache).
    pub images_per_page: u32,
    /// The TPC-W interaction mix (the paper uses browsing).
    pub mix: Mix,
    /// Base RNG seed.
    pub seed: u64,
    /// Tomcat's DB-RPC timeout (see [`AppServerConfig::db_timeout`]).
    pub db_timeout: Cycles,
    /// Optional seeded faults for the assembly (`None` = fault-free):
    /// `front` is client → squid, `backbone` is tomcat → mysql, and
    /// mysql is the victim process and machine.
    pub faults: Option<ScenarioFaults>,
    /// Ready-queue tie-breaking policy (FIFO = the historical schedule).
    pub sched: SchedulePolicy,
    /// Livelock bound: maximum thread resumes at a single virtual
    /// instant before the run is declared livelocked (`None` = off).
    pub step_budget: Option<u64>,
    /// Plants the zero-progress ping-pong pair among the clients
    /// ([`plant_livelock_pair`]) for exercising the chaos explorer's
    /// livelock oracle. Requires a `step_budget`, or the run never
    /// terminates.
    pub livelock_pair: bool,
    /// Records the per-channel send/recv event log (plus ground-truth
    /// pairings) for black-box inference. Pure observation: enabling
    /// it never changes the run (see the engine's comm-log test), so
    /// the batch fingerprint is unaffected.
    pub comm_log: bool,
}

impl Default for TpcwConfig {
    fn default() -> Self {
        TpcwConfig {
            clients: 100,
            engine: Engine::MyIsam,
            caching: false,
            rt: RtKind::Whodunit,
            duration: 400 * CPU_HZ,
            warmup: 60 * CPU_HZ,
            search_terms: 2000,
            images_per_page: 3,
            mix: Mix::Browsing,
            seed: 1,
            db_timeout: AppServerConfig::default().db_timeout,
            faults: None,
            sched: SchedulePolicy::Fifo,
            step_budget: None,
            livelock_pair: false,
            comm_log: false,
        }
    }
}

/// Results of one TPC-W run.
pub struct TpcwReport {
    /// Interactions per minute completed in the measurement window.
    pub throughput_per_min: f64,
    /// Mean response time per interaction, in milliseconds.
    pub rt_ms: HashMap<Interaction, f64>,
    /// Ground-truth DB CPU cycles per interaction (from the simulator,
    /// for validating the profiler).
    pub db_cpu_truth: HashMap<Interaction, u64>,
    /// Queries served per interaction.
    pub db_served: HashMap<Interaction, u64>,
    /// Application-server cache hits.
    pub cache_hits: u64,
    /// Squid static-content cache hits.
    pub img_hits: u64,
    /// Squid static-content cache misses.
    pub img_misses: u64,
    /// Stage dumps (squid, tomcat, mysql) when Whodunit was installed.
    pub dumps: Vec<StageDump>,
    /// The three tier runtimes (squid, tomcat, mysql).
    pub runtimes: Vec<ProcRuntime>,
    /// The database handles' counter lock (§8.1 checks).
    pub counter_lock: whodunit_core::ids::LockId,
    /// Measurement window length in cycles.
    pub window: Cycles,
    /// Total bytes sent over every channel (application data plus
    /// synopsis piggyback) — the denominator of §9.1's communication
    /// overhead.
    pub wire_bytes: u64,
    /// Synopsis piggyback bytes across all profiled stages.
    pub piggyback_bytes: u64,
    /// Error pages the clients received (tomcat shed the request).
    pub client_errors: u64,
    /// Error pages classified per interaction.
    pub errors_by: HashMap<Interaction, u64>,
    /// Tomcat DB-RPC timeouts fired.
    pub app_db_timeouts: u64,
    /// Tomcat DB-RPC resends issued.
    pub app_db_retries: u64,
    /// Requests tomcat shed after exhausting its timeout/retry budget.
    pub app_sheds: u64,
    /// Messages the fault plan dropped on the wire.
    pub dropped_msgs: u64,
    /// Messages the fault plan duplicated on the wire.
    pub duplicated_msgs: u64,
    /// Messages the fault plan delayed on the wire.
    pub delayed_msgs: u64,
    /// How the run ended: limit reached, idle, or a detected
    /// deadlock/livelock with its diagnostic.
    pub outcome: RunOutcome,
    /// Ground-truth compute cycles per profiled tier
    /// (squid, tomcat, mysql) straight from the simulator — the
    /// denominator of profile-mass conservation checks.
    pub compute_truth: Vec<u64>,
    /// The comm event log (with ground truth) when
    /// [`TpcwConfig::comm_log`] was set. Procs are squid=0, tomcat=1,
    /// mysql=2, clients=3; clients are the marked origin tier.
    pub comm: Option<whodunit_core::blackbox::CommLog>,
    /// What the simulator's event queue carried, by kind.
    pub events: whodunit_sim::EventCensus,
}

/// Runs the TPC-W assembly.
pub fn run_tpcw(cfg: TpcwConfig) -> TpcwReport {
    run_tpcw_inner(cfg, None)
}

/// Runs the TPC-W assembly in streaming mode: identical build and
/// schedule to [`run_tpcw`], but the run advances in epochs of
/// `epoch_len` virtual cycles and each epoch's per-stage profile
/// increment is emitted to `sink` via [`Sim::run_streaming`].
///
/// Streaming only changes when profile state is *observed*: the
/// report (and in particular its dumps) is bit-identical to the
/// batch run's for the same config.
pub fn run_tpcw_streaming(
    cfg: TpcwConfig,
    epoch_len: u64,
    sink: &mut dyn whodunit_core::delta::DeltaSink,
) -> TpcwReport {
    run_tpcw_inner(cfg, Some((epoch_len, sink)))
}

fn run_tpcw_inner(
    cfg: TpcwConfig,
    streaming: Option<(u64, &mut dyn whodunit_core::delta::DeltaSink)>,
) -> TpcwReport {
    let mut sim = Sim::new(SimConfig::default());
    sim.set_schedule_policy(cfg.sched);
    sim.set_step_budget(cfg.step_budget);
    let client_m = sim.add_machine(8);
    let squid_m = sim.add_machine(1);
    let tomcat_m = sim.add_machine(2);
    let mysql_m = sim.add_machine(1);

    let squid_pr = make_runtime(cfg.rt, ProcId(0), "squid", sim.frames().clone());
    let tomcat_pr = make_runtime(cfg.rt, ProcId(1), "tomcat", sim.frames().clone());
    let mysql_pr = make_runtime(cfg.rt, ProcId(2), "mysql", sim.frames().clone());
    let squid_proc = sim.add_process(squid_pr.rt.clone());
    let tomcat_proc = sim.add_process(tomcat_pr.rt.clone());
    let mysql_proc = sim.add_process(mysql_pr.rt.clone());
    let client_proc = sim.add_unprofiled_process();
    if cfg.comm_log {
        sim.mark_comm_origin(client_proc);
    }

    let db: DbHandles = build_dbserver(&mut sim, mysql_proc, mysql_m, cfg.engine);
    let app: AppHandles = build_appserver(
        &mut sim,
        tomcat_proc,
        tomcat_m,
        db.req_chan,
        AppServerConfig {
            caching: cfg.caching,
            db_timeout: cfg.db_timeout,
            ..AppServerConfig::default()
        },
    );

    let squid_in = sim.add_channel(240_000, 20);
    if let Some(fs) = cfg.faults {
        sim.set_fault_plan(fs.plan(squid_in, db.req_chan, mysql_proc, mysql_m));
    }
    let f_sq_main = sim.frame("comm_poll");
    let f_sq_fwd = sim.frame("client_http_request");
    let f_sq_img = sim.frame("clientCacheHit_static");
    let squid_shared = Rc::new(RefCell::new(SquidShared::default()));
    for i in 0..32 {
        let my_reply = sim.add_channel(240_000, 20);
        sim.spawn(
            squid_proc,
            squid_m,
            &format!("squid{i}"),
            Box::new(SquidWorker {
                shared: squid_shared.clone(),
                in_chan: squid_in,
                tomcat: app.req_chan,
                my_reply,
                f_main: f_sq_main,
                f_fwd: f_sq_fwd,
                f_img: f_sq_img,
                state: FState::Init,
            }),
        );
    }

    let stats = Rc::new(RefCell::new(ClientStats::default()));
    for i in 0..cfg.clients {
        let reply = sim.add_channel(240_000, 20);
        sim.spawn(
            client_proc,
            client_m,
            &format!("eb{i}"),
            Box::new(TpcwClient {
                mix: TpcwMix::with_mix(
                    cfg.seed.wrapping_add(i as u64).wrapping_mul(0x9e37),
                    cfg.mix,
                ),
                rng: SmallRng::seed_from_u64(cfg.seed ^ (i as u64) << 20),
                squid: squid_in,
                reply,
                stats: stats.clone(),
                warmup: cfg.warmup,
                search_terms: cfg.search_terms,
                images_per_page: cfg.images_per_page,
                current: None,
                state: CState::Think,
            }),
        );
    }

    if cfg.livelock_pair {
        plant_livelock_pair(&mut sim, client_proc, client_m);
    }

    let outcome = match streaming {
        None => sim.run_until(cfg.duration),
        Some((epoch_len, sink)) => sim.run_streaming(cfg.duration, epoch_len, sink),
    };
    let comm = sim.take_comm_log();

    let compute_truth = vec![
        sim.proc_compute_cycles(squid_proc),
        sim.proc_compute_cycles(tomcat_proc),
        sim.proc_compute_cycles(mysql_proc),
    ];
    let dropped_msgs = sim.chans.total_dropped();
    let duplicated_msgs = sim.chans.total_duplicated();
    let delayed_msgs = sim.chans.total_delayed();
    let wire_bytes = sim.chans.total_bytes();
    let window = cfg.duration - cfg.warmup;
    let st = stats.borrow();
    let rt_ms = st
        .rt
        .iter()
        .map(|(&i, acc)| (i, cycles_to_ms(acc.mean() as u64)))
        .collect();
    let sh = db.shared.borrow();
    let db_cpu_truth = sh
        .served
        .iter()
        .map(|(&i, &n)| (i, n * crate::dbserver::query_for(i).cost()))
        .collect();
    let cache_hits = app.shared.borrow().cache_hits;
    let img_hits = squid_shared.borrow().img_hits;
    let img_misses = squid_shared.borrow().img_misses;
    let db_served = sh.served.clone();
    let dumps = sim.collect_dumps();
    let piggyback_bytes = dumps.iter().map(|d| d.piggyback_bytes).sum();
    let ash = app.shared.borrow();
    TpcwReport {
        throughput_per_min: per_minute(st.completed, window),
        rt_ms,
        db_cpu_truth,
        db_served,
        cache_hits,
        img_hits,
        img_misses,
        dumps,
        runtimes: vec![squid_pr, tomcat_pr, mysql_pr],
        counter_lock: db.counter_lock,
        window,
        wire_bytes,
        piggyback_bytes,
        client_errors: st.errors,
        errors_by: st.errors_by.clone(),
        app_db_timeouts: ash.db_timeouts,
        app_db_retries: ash.db_retries_used,
        app_sheds: ash.sheds,
        dropped_msgs,
        duplicated_msgs,
        delayed_msgs,
        outcome,
        compute_truth,
        comm,
        events: sim.event_census(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(clients: u32, caching: bool, engine: Engine) -> TpcwReport {
        run_tpcw(TpcwConfig {
            clients,
            caching,
            engine,
            duration: 120 * CPU_HZ,
            warmup: 30 * CPU_HZ,
            ..TpcwConfig::default()
        })
    }

    #[test]
    fn event_census_of_a_fixed_run_is_pinned() {
        // 40 clients, 120 s, the default seed. Scheduled minus fired
        // is what was still queued at the limit; every receive deadline
        // that fired found its receive already answered.
        use whodunit_sim::{EventCensus, KindCount};
        let count = |scheduled, fired| KindCount { scheduled, fired };
        assert_eq!(
            quick(40, false, Engine::MyIsam).events,
            EventCensus {
                quantum_end: count(49_032, 49_031),
                deliver: count(8_925, 8_925),
                timer: count(3_390, 3_351),
                recv_deadline: count(671, 506),
                cond_deadline: count(0, 0),
                crash: count(0, 0),
                recv_deadlines_stale: 506,
                peak_near: 4,
                peak_events: 221,
            }
        );
    }

    #[test]
    fn event_census_of_a_run_with_piled_up_deliveries_is_pinned() {
        // The run above under a fault plan on both faulted channels: one
        // message in two is held back 100 ms, a thousand times a
        // channel's 0.1 ms latency, so deliveries wait beside the
        // quantum ends in the queue's sorted run. `peak_near` is how
        // long that run got. The plan asks for no duplicates: no TPC-W
        // payload is `Msg::replayable`, so a duplicate verdict would be
        // delivered once all the same.
        use whodunit_sim::{ChannelFaults, EventCensus, KindCount};
        let count = |scheduled, fired| KindCount { scheduled, fired };
        let late = ChannelFaults {
            delay_p: 0.5,
            delay_cycles: CPU_HZ / 10,
            ..ChannelFaults::default()
        };
        let r = run_tpcw(TpcwConfig {
            clients: 40,
            duration: 120 * CPU_HZ,
            warmup: 30 * CPU_HZ,
            faults: Some(ScenarioFaults {
                seed: 7,
                front: late,
                backbone: late,
                ..ScenarioFaults::default()
            }),
            ..TpcwConfig::default()
        });
        assert_eq!(r.outcome, RunOutcome::ReachedLimit);
        assert_eq!(r.delayed_msgs, 1_594);
        assert_eq!(
            r.events,
            EventCensus {
                quantum_end: count(47_180, 47_180),
                deliver: count(8_643, 8_640),
                timer: count(3_270, 3_233),
                recv_deadline: count(647, 490),
                cond_deadline: count(0, 0),
                crash: count(0, 0),
                recv_deadlines_stale: 490,
                peak_near: 8,
                peak_events: 214,
            }
        );
    }

    #[test]
    fn tpcw_serves_interactions_end_to_end() {
        let r = quick(40, false, Engine::MyIsam);
        assert!(
            r.throughput_per_min > 100.0,
            "tput {}",
            r.throughput_per_min
        );
        assert!(
            r.db_served.len() >= 8,
            "interaction coverage {:?}",
            r.db_served.len()
        );
        assert_eq!(r.dumps.len(), 3, "three profiled stages");
    }

    #[test]
    fn bestsellers_dominates_db_cpu() {
        let r = quick(40, false, Engine::MyIsam);
        let total: u64 = r.db_cpu_truth.values().sum();
        let bs = *r.db_cpu_truth.get(&Interaction::BestSellers).unwrap_or(&0);
        let sr = *r.db_cpu_truth.get(&Interaction::SearchResult).unwrap_or(&0);
        assert!(bs + sr > total / 2, "BS+SR = {}, total {}", bs + sr, total);
    }

    #[test]
    fn caching_reduces_db_queries() {
        let plain = quick(40, false, Engine::MyIsam);
        let cached = quick(40, true, Engine::MyIsam);
        assert!(cached.cache_hits > 0);
        let plain_q: u64 = plain.db_served.values().sum();
        let cached_q: u64 = cached.db_served.values().sum();
        assert!(cached_q < plain_q, "cached {cached_q} vs plain {plain_q}");
    }

    #[test]
    fn mysql_counter_flow_is_excluded() {
        let r = quick(20, false, Engine::MyIsam);
        let w = r.runtimes[2].whodunit.as_ref().unwrap().borrow();
        // §8.1: the shared counter is seen (its lock has activity) but
        // no transaction flow is inferred in MySQL.
        assert!(!w
            .flow_log()
            .iter()
            .any(|e| matches!(e, whodunit_core::shm::FlowEvent::Consumed { .. })));
        let stats = w.detector().lock_stats(r.counter_lock);
        assert_eq!(stats.producers, 0, "counter increments are non-MOV");
    }

    #[test]
    fn communication_overhead_is_about_one_percent() {
        // §9.1: "92.52 MB of data and 0.95 MB of transaction context is
        // transferred among the stages — a communication overhead of
        // about 1%".
        let r = quick(60, false, Engine::MyIsam);
        assert!(r.piggyback_bytes > 0);
        let pct = r.piggyback_bytes as f64 * 100.0 / r.wire_bytes as f64;
        assert!(pct < 3.0, "communication overhead {pct:.2}%");
        assert!(pct > 0.01, "piggyback is actually being counted: {pct:.4}%");
    }

    #[test]
    fn static_images_flow_through_squid_cache() {
        let r = quick(40, false, Engine::MyIsam);
        assert!(r.img_hits + r.img_misses > 100, "images requested");
        assert!(
            r.img_hits > r.img_misses,
            "the cache absorbs most image traffic: {} hits vs {} misses",
            r.img_hits,
            r.img_misses
        );
    }

    #[test]
    fn db_crash_degrades_gracefully_and_conserves_profile_mass() {
        // MySQL dies mid-run: tomcat's DB RPCs time out, retries are
        // spent, requests are shed, and the clients see classified
        // error pages — while every profiled tier's CCT mass still
        // sums to the simulator's ground-truth compute cycles.
        let r = run_tpcw(TpcwConfig {
            clients: 30,
            duration: 90 * CPU_HZ,
            warmup: 20 * CPU_HZ,
            db_timeout: CPU_HZ / 2,
            faults: Some(ScenarioFaults {
                seed: 9,
                crash_at: Some(45 * CPU_HZ),
                ..ScenarioFaults::default()
            }),
            ..TpcwConfig::default()
        });
        assert!(r.throughput_per_min > 0.0, "pre-crash pages completed");
        assert!(r.app_db_timeouts > 0, "timeouts fired after the crash");
        assert!(r.app_db_retries > 0, "retries were attempted");
        assert!(r.app_sheds > 0, "requests were shed");
        assert!(r.client_errors > 0, "clients saw error pages");
        assert!(!r.errors_by.is_empty(), "errors are classified");
        for (idx, pr) in r.runtimes.iter().enumerate() {
            let w = pr.whodunit.as_ref().unwrap().borrow();
            let cct_sum: u64 = w
                .profiled_contexts()
                .iter()
                .map(|&c| w.cct(c).map_or(0, |t| t.total().cycles))
                .sum();
            assert_eq!(
                cct_sum, r.compute_truth[idx],
                "tier {idx} profile mass diverges from ground truth"
            );
        }
    }

    #[test]
    fn dropped_db_requests_are_retried_transparently() {
        // 20% of tomcat→mysql requests vanish on the wire; the tagged
        // timeout/retry path re-sends them and clients rarely notice.
        let r = run_tpcw(TpcwConfig {
            clients: 20,
            duration: 90 * CPU_HZ,
            warmup: 20 * CPU_HZ,
            db_timeout: CPU_HZ,
            faults: Some(ScenarioFaults {
                seed: 11,
                backbone: whodunit_sim::ChannelFaults {
                    drop_p: 0.2,
                    ..Default::default()
                },
                ..ScenarioFaults::default()
            }),
            ..TpcwConfig::default()
        });
        assert!(r.dropped_msgs > 0, "the plan actually dropped messages");
        assert!(r.app_db_retries > 0, "drops surfaced as retries");
        assert!(
            r.throughput_per_min > 50.0,
            "retries keep the site serving: {}",
            r.throughput_per_min
        );
    }

    #[test]
    fn comm_log_covers_every_recv_without_changing_the_run() {
        let mut cfg = TpcwConfig {
            clients: 15,
            duration: 60 * CPU_HZ,
            warmup: 10 * CPU_HZ,
            comm_log: true,
            ..TpcwConfig::default()
        };
        let on = run_tpcw(cfg.clone());
        cfg.comm_log = false;
        let off = run_tpcw(cfg);
        // Observation only: the run is bit-identical either way.
        assert_eq!(on.throughput_per_min, off.throughput_per_min);
        assert_eq!(on.db_served, off.db_served);
        assert_eq!(on.compute_truth, off.compute_truth);
        let log = on.comm.expect("comm log requested");
        assert!(off.comm.is_none());
        // Ground truth attributes every recv to one send and one root.
        assert!(log.recv_count() > 1000, "recvs {}", log.recv_count());
        assert_eq!(log.truth_pairs().len(), log.recv_count());
        assert_eq!(log.truth_origins().len(), log.recv_count());
    }

    #[test]
    fn mysql_contexts_distinguish_interactions() {
        let r = quick(60, false, Engine::MyIsam);
        let w = r.runtimes[2].whodunit.as_ref().unwrap().borrow();
        let remote_ctxs = w
            .profiled_contexts()
            .into_iter()
            .filter(|&c| w.ctx_string(c).starts_with("remote("))
            .count();
        // One remote context per interaction type that reached MySQL.
        assert!(remote_ctxs >= 6, "distinct MySQL contexts: {remote_ctxs}");
    }
}
