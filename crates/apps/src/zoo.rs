//! The topology zoo: small multi-tier assemblies beyond the TPC-W
//! pipeline, built to stress black-box inference stitching
//! (`whodunit-infer`) with communication structures the 3-tier chain
//! never produces.
//!
//! | Topology | Structure | What it stresses |
//! |---|---|---|
//! | [`Topology::Fanout`] | gateway fans one request out to K services and fans the replies back in | concurrent sibling sends on distinct channels; fan-in ordering |
//! | [`Topology::PubSub`] | publishers → broker → topic subscribers, fire-and-forget events | one-way edges (no reply to anchor timing); multicast of one logical event |
//! | [`Topology::CacheWt`] | front → 2 cache shards → store, write-through with peer invalidations | peer-to-peer traffic between mid-tier siblings; invalidation storms under write bursts |
//!
//! Every topology runs under the standard simulator machinery: seeded
//! schedules, [`whodunit_sim::FaultPlan`]s, step budgets, profiled
//! tiers (so the mass-conservation oracle applies), and the optional
//! comm-event log that feeds inference. Clients are the marked origin
//! tier. Load is shaped by [`whodunit_workload::LoadShape`] — flash
//! crowds and diurnal swings change message density, which is exactly
//! the variable timing-window inference is sensitive to.
//!
//! Each member is also a [`crate::chaos::Assembly`], so the explorer
//! can sample, check, and shrink scenarios on it: one
//! [`ScenarioFaults`] in the `front` / `backbone` / backend roles, the
//! planted livelock pair, and the shared verdict.

use crate::harness::{Build, RunTail, Stream};
use crate::rtconf::RtKind;
use crate::STEP_BUDGET;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;
use whodunit_core::cost::CPU_HZ;
use whodunit_core::ids::ChanId;
use whodunit_core::stitch::StageDump;
use whodunit_sim::{Cycles, Msg, Op, ScenarioFaults, SchedulePolicy, ThreadBody, ThreadCx, Wake};
use whodunit_workload::LoadShape;

pub mod cachewt;
pub mod fanout;
pub mod pubsub;

/// Which zoo member to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Microservice fan-out/fan-in: gateway → K services → gateway.
    Fanout,
    /// Pub/sub event bus: publishers → broker → topic subscribers.
    PubSub,
    /// Write-through cache pair with peer invalidations over a store.
    CacheWt,
}

impl Topology {
    /// All zoo members, in bench order.
    pub const ALL: [Topology; 3] = [Topology::Fanout, Topology::PubSub, Topology::CacheWt];

    /// Stable lowercase name (bench JSON keys, chaos roles).
    pub fn name(self) -> &'static str {
        match self {
            Topology::Fanout => "fanout",
            Topology::PubSub => "pubsub",
            Topology::CacheWt => "cachewt",
        }
    }
}

/// Zoo experiment configuration, shared by all three topologies.
#[derive(Clone, Debug)]
pub struct ZooConfig {
    /// Which assembly to build.
    pub topology: Topology,
    /// Closed-loop clients (publishers, for [`Topology::PubSub`]).
    pub clients: u32,
    /// Fan-out width / subscriber count ([`Topology::CacheWt`] has a
    /// fixed shape: 2 shards + 1 store).
    pub services: u32,
    /// Virtual run duration (including warmup).
    pub duration: Cycles,
    /// Measurements start after this much virtual time.
    pub warmup: Cycles,
    /// Base RNG seed.
    pub seed: u64,
    /// Time-varying load envelope on client think times.
    pub shape: LoadShape,
    /// Profiler installed in the server tiers.
    pub rt: RtKind,
    /// Ready-queue tie-breaking policy.
    pub sched: SchedulePolicy,
    /// Livelock bound (see [`crate::tpcw::TpcwConfig::step_budget`]).
    pub step_budget: Option<u64>,
    /// Plants the zero-progress ping-pong pair (needs a step budget).
    pub livelock_pair: bool,
    /// Records the comm event log for black-box inference.
    pub comm_log: bool,
    /// Cross-tier RPC timeout for workers that wait on a backend.
    pub rpc_timeout: Cycles,
    /// Optional faults: `front` is client → entry tier, `backbone` is
    /// entry tier → first backend (gateway → svc0, broker → sub0,
    /// shards → store), and the victim is the last service, the last
    /// subscriber, or the store.
    pub faults: Option<ScenarioFaults>,
}

impl Default for ZooConfig {
    fn default() -> Self {
        ZooConfig {
            topology: Topology::Fanout,
            clients: 12,
            services: 3,
            duration: 30 * CPU_HZ,
            warmup: 5 * CPU_HZ,
            seed: 1,
            shape: LoadShape::Steady,
            rt: RtKind::Whodunit,
            sched: SchedulePolicy::Fifo,
            step_budget: Some(STEP_BUDGET),
            livelock_pair: false,
            comm_log: false,
            rpc_timeout: CPU_HZ / 2,
            faults: None,
        }
    }
}

/// Results of one zoo run.
pub struct ZooReport {
    /// Client operations completed after warmup.
    pub completed: u64,
    /// Error replies clients received (backend timeout paths).
    pub errors: u64,
    /// Stage dumps of the profiled tiers, in proc order.
    pub dumps: Vec<StageDump>,
    /// The outcome, the compute truth of each profiled tier in proc
    /// order, the comm log when [`ZooConfig::comm_log`] was set, and
    /// the fault counters.
    pub tail: RunTail,
    /// Pub/sub only: events delivered to subscribers.
    pub events_delivered: u64,
    /// Cache topology only: shard hits.
    pub cache_hits: u64,
    /// Cache topology only: peer invalidations delivered.
    pub invalidations: u64,
}

/// Runs the configured zoo assembly.
pub fn run_zoo(cfg: &ZooConfig) -> ZooReport {
    run_zoo_on(cfg, None)
}

/// [`run_zoo`], emitting each epoch's profile increment to the sink
/// when `stream` is given.
pub(crate) fn run_zoo_on(cfg: &ZooConfig, stream: Stream<'_>) -> ZooReport {
    match cfg.topology {
        Topology::Fanout => fanout::run(cfg, stream),
        Topology::PubSub => pubsub::run(cfg, stream),
        Topology::CacheWt => cachewt::run(cfg, stream),
    }
}

/// Mean client think time before shaping.
const BASE_THINK: Cycles = CPU_HZ / 2;

/// Client-side completion counters, shared across a topology's
/// closed-loop clients.
#[derive(Debug, Default)]
struct ZooStats {
    completed: u64,
    errors: u64,
}

/// One closed-loop zoo client: think (shaped), fire the
/// topology-specific request, await the reply, repeat.
struct ZooClient<F: FnMut(&mut SmallRng, ChanId) -> Msg> {
    make_req: F,
    rng: SmallRng,
    entry: ChanId,
    reply: ChanId,
    stats: Rc<RefCell<ZooStats>>,
    warmup: Cycles,
    shape: LoadShape,
    started: Cycles,
    state: ClientState,
}

enum ClientState {
    Think,
    Sent,
    WaitReply,
}

/// The reply payload every zoo tier sends back to its client.
#[derive(Debug)]
pub(crate) struct ClientReply {
    pub(crate) ok: bool,
}

impl<F: FnMut(&mut SmallRng, ChanId) -> Msg> ThreadBody for ZooClient<F> {
    fn resume(&mut self, cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match std::mem::replace(&mut self.state, ClientState::Think) {
            ClientState::Think => {
                if matches!(wake, Wake::Slept) {
                    self.started = cx.now();
                    self.state = ClientState::Sent;
                    let msg = (self.make_req)(&mut self.rng, self.reply);
                    Op::Send(self.entry, msg)
                } else {
                    // Draw a fresh think and run it through the load
                    // shape at the current virtual time.
                    let u = self.rng.gen::<f64>();
                    let base = (BASE_THINK as f64 * (0.25 + 1.5 * u)) as u64;
                    self.state = ClientState::Think;
                    Op::Sleep(self.shape.scale_think(base, cx.now()))
                }
            }
            ClientState::Sent => {
                self.state = ClientState::WaitReply;
                Op::Recv(self.reply)
            }
            ClientState::WaitReply => {
                let Wake::Received(msg) = wake else {
                    unreachable!("zoo client waits for its reply");
                };
                let r = msg.take::<ClientReply>();
                let mut st = self.stats.borrow_mut();
                if !r.ok {
                    st.errors += 1;
                } else if self.started >= self.warmup {
                    st.completed += 1;
                }
                drop(st);
                self.state = ClientState::Think;
                let u = self.rng.gen::<f64>();
                let base = (BASE_THINK as f64 * (0.25 + 1.5 * u)) as u64;
                Op::Sleep(self.shape.scale_think(base, cx.now()))
            }
        }
    }
}

/// The last steps every topology's build shares: spawns its
/// closed-loop clients on the client process (client `c` named
/// `{name}{c}`, seeded `cfg.seed ^ (c << 24) ^ salt`, sending
/// `make_req`'s requests to `entry`), runs, and reports the clients'
/// counters. The topology adds its own counters to the report.
fn run_clients<F>(
    mut b: Build,
    cfg: &ZooConfig,
    stream: Stream<'_>,
    entry: ChanId,
    name: &str,
    salt: u64,
    make_req: F,
) -> ZooReport
where
    F: FnMut(&mut SmallRng, ChanId) -> Msg + Clone + 'static,
{
    let (proc, machine) = b.client.expect("the topology registered its clients");
    let stats = Rc::new(RefCell::new(ZooStats::default()));
    for c in 0..cfg.clients {
        let reply = b.sim.add_channel(240_000, 20);
        b.sim.spawn(
            proc,
            machine,
            &format!("{name}{c}"),
            Box::new(ZooClient {
                make_req: make_req.clone(),
                rng: SmallRng::seed_from_u64(cfg.seed ^ ((c as u64) << 24) ^ salt),
                entry,
                reply,
                stats: stats.clone(),
                warmup: cfg.warmup,
                shape: cfg.shape,
                started: 0,
                state: ClientState::Think,
            }),
        );
    }
    let tail = b.run(cfg.duration, cfg.livelock_pair, stream);
    let st = stats.borrow();
    ZooReport {
        completed: st.completed,
        errors: st.errors,
        dumps: b.sim.collect_dumps(),
        tail,
        events_delivered: 0,
        cache_hits: 0,
        invalidations: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(t: Topology) -> ZooConfig {
        ZooConfig {
            topology: t,
            clients: 8,
            duration: 20 * CPU_HZ,
            warmup: 5 * CPU_HZ,
            comm_log: true,
            ..ZooConfig::default()
        }
    }

    #[test]
    fn fanout_serves_and_logs() {
        let r = run_zoo(&quick(Topology::Fanout));
        assert!(r.completed > 20, "completed {}", r.completed);
        assert_eq!(r.errors, 0, "clean run has no error replies");
        assert_eq!(r.dumps.len(), r.tail.compute_truth.len());
        assert!(r.tail.compute_truth.iter().all(|&c| c > 0));
        let log = r.tail.comm.expect("comm log requested");
        // Every recv has exactly one ground-truth producer and origin.
        assert_eq!(log.truth_pairs().len(), log.recv_count());
        assert_eq!(log.truth_origins().len(), log.recv_count());
    }

    #[test]
    fn pubsub_multicasts_each_publish_twice() {
        let r = run_zoo(&quick(Topology::PubSub));
        assert!(r.completed > 20, "completed {}", r.completed);
        // Each publish (including warmup ones) lands on exactly two
        // subscribers; completed only counts post-warmup publishes.
        assert!(
            r.events_delivered >= 2 * r.completed,
            "delivered {} for {} publishes",
            r.events_delivered,
            r.completed
        );
        let log = r.tail.comm.expect("comm log requested");
        assert!(log.send_count() > log.recv_count() / 2);
    }

    #[test]
    fn cachewt_invalidates_peers_on_writes() {
        let r = run_zoo(&quick(Topology::CacheWt));
        assert!(r.completed > 20, "completed {}", r.completed);
        assert!(r.cache_hits > 0, "reads hit the cache");
        assert!(r.invalidations > 0, "writes invalidate the peer shard");
    }

    #[test]
    fn flash_crowd_outpaces_steady_load() {
        let steady = run_zoo(&quick(Topology::Fanout));
        let mut cfg = quick(Topology::Fanout);
        cfg.shape = LoadShape::FlashCrowd {
            at: 8 * CPU_HZ,
            len: 10 * CPU_HZ,
            surge_ppm: 150_000,
        };
        let crowd = run_zoo(&cfg);
        assert!(
            crowd.completed > steady.completed * 2,
            "crowd {} vs steady {}",
            crowd.completed,
            steady.completed
        );
    }

    #[test]
    fn comm_log_is_pure_observation() {
        // Same config, log on vs off: identical outcome and truth-side
        // measurements.
        let mut on = quick(Topology::CacheWt);
        on.comm_log = true;
        let mut off = on.clone();
        off.comm_log = false;
        let a = run_zoo(&on);
        let b = run_zoo(&off);
        assert!(a.tail.comm.is_some() && b.tail.comm.is_none());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.tail.compute_truth, b.tail.compute_truth);
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.invalidations, b.invalidations);
    }
}
