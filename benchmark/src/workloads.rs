//! The four workloads: input generation, the timed pass, and the
//! per-pass correctness oracle.
//!
//! Every workload is closed-loop with one client on one thread
//! (`workers: 1` everywhere): the next frame is offered only after the
//! call that took the previous one has returned. A *pass* runs the
//! whole input once through a fresh instance of the product and ends
//! when `finalize` returns; verification happens after the timer stops.
//!
//! Inputs come from `--seed` alone (`TpcwConfig::seed` of the recorded
//! stack run, the `FaultPlan` seed of the lossy links). The product
//! receives only the generated frames.

use std::collections::VecDeque;
use std::time::Instant;

use whodunit_apps::federation::{
    fan_in_topology, fleet_epochs, leaf_stream, replica_header, FaultLinkPolicy, FedTopology,
};
use whodunit_apps::tpcw::{run_tpcw_streaming, TpcwConfig, TpcwReport};
use whodunit_collector::federation::{Federation, FederationConfig, FederationStats};
use whodunit_collector::{Collector, CollectorConfig, CollectorOutput};
use whodunit_core::cost::CPU_HZ;
use whodunit_core::delta::{DeltaSink, EpochBatch, RecordingSink, StreamHeader};
use whodunit_core::oracle::{check_federation, FederationEvidence};
use whodunit_core::pipeline::{analyze, replicate_fleet, PipelineConfig, PipelineReport};
use whodunit_core::stitch::StageDump;
use whodunit_core::wire;
use whodunit_report::live::{FedTopologyView, LiveSnapshot};
use whodunit_sim::fault::ChannelFaults;
use whodunit_sim::FaultPlan;

use crate::trace::Recorder;

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["live_stack", "ingest_wide", "ingest_churn", "fed_lossy"];

/// The fleet benches' TPC-W configuration (`duration_s` simulated
/// seconds, a quarter of it warm-up), restated from `crates/bench` so
/// the benchmark does not depend on the crate ROADMAP item 3 deletes
/// from.
fn fleet_config(clients: u32, duration_s: u64, seed: u64) -> TpcwConfig {
    TpcwConfig {
        clients,
        duration: duration_s * CPU_HZ,
        warmup: (duration_s / 4) * CPU_HZ,
        seed,
        ..Default::default()
    }
}

/// The pipeline sizing the collector's byte-identity lock is stated
/// against.
pub fn batch_config() -> PipelineConfig {
    PipelineConfig {
        workers: 1,
        shards: CollectorConfig::default().shards,
    }
}

// ---------------------------------------------------------------------
// What set-up builds
// ---------------------------------------------------------------------

/// One recorded 3-tier TPC-W run: the input generator.
pub struct Recorded {
    /// Its configuration (seeded from `--seed`).
    pub cfg: TpcwConfig,
    /// Stage set of the stream.
    pub header: StreamHeader,
    /// One batch per 1 s epoch.
    pub batches: Vec<EpochBatch>,
    /// The three stage dumps at the end of the run.
    pub dumps: Vec<StageDump>,
    /// Requests the simulated clients completed in the measured window.
    pub requests: u64,
}

fn completed_requests(r: &TpcwReport) -> u64 {
    // `throughput_per_min` is `completed / window` scaled to a minute;
    // undo the scaling to get the exact count back.
    (r.throughput_per_min * r.window as f64 / (60.0 * CPU_HZ as f64)).round() as u64
}

fn record(cfg: TpcwConfig) -> Recorded {
    let mut sink = RecordingSink::default();
    let report = run_tpcw_streaming(cfg.clone(), CPU_HZ, &mut sink);
    assert_eq!(report.dumps.len(), 3, "squid, tomcat and mysql all dump");
    Recorded {
        cfg,
        header: sink.header,
        batches: sink.batches,
        requests: completed_requests(&report),
        dumps: report.dumps,
    }
}

/// The batch answer every pass is compared against.
pub struct Reference {
    /// `analyze(replicate_fleet(dumps, replicas))`.
    pub report: PipelineReport,
    /// Its fingerprint, which every pass must reproduce.
    fingerprint: u64,
}

/// What every workload's set-up produces: the recorded run, the fleet
/// width it is replicated to, and the batch reference for that fleet.
pub struct Fixture {
    /// The recorded stack run.
    pub recorded: Recorded,
    /// Replicas in the fleet (1 on `live_stack`).
    pub replicas: usize,
    /// Batch `analyze` over the same fleet.
    pub reference: Reference,
}

impl Fixture {
    fn new(cfg: TpcwConfig, replicas: usize) -> Fixture {
        let recorded = record(cfg);
        let report = analyze(replicate_fleet(&recorded.dumps, replicas), batch_config());
        Fixture {
            recorded,
            replicas,
            reference: Reference {
                fingerprint: report.fingerprint(),
                report,
            },
        }
    }

    /// Test hook (`--corrupt-reference`): a reference no honest pass
    /// can match, to prove that a failed verification stops the run.
    pub fn corrupt_reference(&mut self) {
        self.reference.fingerprint ^= 1;
    }
}

// ---------------------------------------------------------------------
// What a pass returns
// ---------------------------------------------------------------------

/// What the client side of a pass counted while offering its input.
#[derive(Default)]
pub struct Offered {
    /// Change events offered (`EpochBatch::events()` summed).
    pub events: u64,
    /// Frames offered, re-offers after a refusal not counted.
    pub frames: u64,
    /// Clean frames the product answered with `Err`.
    pub frame_errors: u64,
    /// Frames an unbounded queue refused (must stay 0).
    pub refused_unbounded: u64,
    /// `snapshot()` calls made.
    pub snapshots: u64,
    /// The last snapshot taken, if any.
    pub last_snapshot: Option<LiveSnapshot>,
}

/// What the federation hands back beside the root collector's output.
pub struct FedSide {
    /// Link, checkpoint and residency counters.
    pub stats: FederationStats,
    /// Coverage the root reported.
    pub coverage_ppm: u64,
    /// Subtrees finalized degraded.
    pub degraded: Vec<String>,
    /// The mass ledger for [`check_federation`].
    pub evidence: FederationEvidence,
    /// Final topology view (the federation's live read surface).
    pub topology: FedTopologyView,
}

/// Everything one pass produced.
pub struct PassOut {
    /// The finalized report and the collector's counters (the root
    /// collector's on `fed_lossy`).
    pub collector: CollectorOutput,
    /// Federation side, on `fed_lossy` only.
    pub fed: Option<FedSide>,
    /// The client's own counts.
    pub offered: Offered,
    /// Offer → drained latency of each frame, ns (traced passes only).
    pub frame_latency_ns: Vec<f64>,
}

/// One workload, set up and ready to run passes.
pub trait Workload {
    /// Runs one pass. `rec` records a span around every call into the
    /// product when it is on and costs a branch per call when off.
    fn pass(&self, rec: &mut Recorder) -> PassOut;

    /// The recorded run and the batch reference.
    fn fixture(&self) -> &Fixture;

    /// Mutable access, for the corruption test hook.
    fn fixture_mut(&mut self) -> &mut Fixture;

    /// The pass's input as wire frames plus the header they apply
    /// under, for the `wire.*` probes. Built on demand where the pass
    /// itself does not hold frames.
    fn wire_input(&self) -> (StreamHeader, Vec<Vec<u8>>);

    /// Per-leaf struct streams and the flush cadence, for the
    /// `summary.merge_ms` probe (`fed_lossy` only).
    fn leaf_streams(&self) -> Option<(&[Vec<EpochBatch>], u64)> {
        None
    }

    /// A live snapshot of the final state for `report.render_ms`, on a
    /// workload whose pass takes none.
    fn final_snapshot(&self) -> Option<LiveSnapshot> {
        None
    }
}

/// Sets `name` up from `seed`. `smoke` shrinks the fleet so all four
/// workloads finish in seconds; the shapes stay the same.
pub fn setup(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "live_stack" => Box::new(LiveStack::setup(seed, smoke)),
        "ingest_wide" => Box::new(Ingest::setup(seed, smoke, false)),
        "ingest_churn" => Box::new(Ingest::setup(seed, smoke, true)),
        "fed_lossy" => Box::new(FedLossy::setup(seed, smoke)),
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Offer → drained latency bookkeeping (traced passes only)
// ---------------------------------------------------------------------

/// Offer timestamps of frames accepted but not yet processed; the
/// collector's queue is FIFO, so each processed batch is the oldest.
struct InFlight {
    on: bool,
    origin: Instant,
    offered_ns: VecDeque<u64>,
    latency_ns: Vec<f64>,
}

impl InFlight {
    /// Room for `frames` latencies is reserved up front, so a traced
    /// pass's own bookkeeping never allocates inside a product span.
    fn new(on: bool, frames: usize) -> InFlight {
        let room = if on { frames } else { 0 };
        InFlight {
            on,
            origin: Instant::now(),
            offered_ns: VecDeque::with_capacity(room.min(64)),
            latency_ns: Vec::with_capacity(room),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Call before offering a frame; hand the value to [`Self::accepted`].
    fn stamp(&self) -> u64 {
        if self.on {
            self.now_ns()
        } else {
            0
        }
    }

    fn accepted(&mut self, stamp: u64) {
        if self.on {
            self.offered_ns.push_back(stamp);
        }
    }

    /// The oldest `n` frames in flight were just processed.
    fn processed(&mut self, n: usize) {
        if self.on {
            let now = self.now_ns();
            for t in self.offered_ns.drain(..n) {
                self.latency_ns.push((now - t) as f64);
            }
        }
    }

    fn processed_all(&mut self) {
        self.processed(self.offered_ns.len());
    }
}

// ---------------------------------------------------------------------
// live_stack
// ---------------------------------------------------------------------

/// The 3-tier stack run live into a collector: the engine, the VM, the
/// apps, the profiler, `diff_dump` and `encode_batch` do the work.
pub struct LiveStack {
    fixture: Fixture,
}

/// Epochs between `snapshot()` calls on `live_stack`.
const LIVE_SNAPSHOT_EVERY: u64 = 4;

impl LiveStack {
    fn setup(seed: u64, smoke: bool) -> LiveStack {
        let cfg = if smoke {
            fleet_config(40, 150, seed)
        } else {
            fleet_config(100, 3000, seed)
        };
        LiveStack {
            fixture: Fixture::new(cfg, 1),
        }
    }
}

struct LiveSink<'a> {
    rec: &'a mut Recorder,
    collector: Collector,
    inflight: InFlight,
    offered: Offered,
}

impl DeltaSink for LiveSink<'_> {
    fn on_start(&mut self, header: &StreamHeader) {
        let frame = self.rec.span("wire.encode", || wire::encode_header(header));
        let started = self
            .rec
            .span("collector.start_wire", || self.collector.start_wire(&frame));
        self.offered.frame_errors += u64::from(started.is_err());
    }

    fn on_batch(&mut self, batch: EpochBatch) {
        self.offered.events += batch.events();
        self.offered.frames += 1;
        let stamp = self.inflight.stamp();
        let frame = self.rec.span("wire.encode", || wire::encode_batch(&batch));
        match self
            .rec
            .span("collector.enqueue", || self.collector.enqueue_wire(&frame))
        {
            Ok(true) => self.inflight.accepted(stamp),
            Ok(false) => self.offered.refused_unbounded += 1,
            Err(_) => self.offered.frame_errors += 1,
        }
        self.rec.span("collector.drain", || self.collector.drain());
        self.inflight.processed_all();
        if self.offered.frames.is_multiple_of(LIVE_SNAPSHOT_EVERY) {
            self.offered.snapshots += 1;
            self.offered.last_snapshot = Some(
                self.rec
                    .span("collector.snapshot", || self.collector.snapshot()),
            );
        }
    }
}

impl Workload for LiveStack {
    fn pass(&self, rec: &mut Recorder) -> PassOut {
        let inflight = InFlight::new(rec.is_on(), self.fixture.recorded.batches.len());
        let root = rec.open("pass");
        let collector = rec.span("collector.new", || {
            Collector::new(CollectorConfig::default())
        });
        let run = rec.open("engine.run");
        let mut sink = LiveSink {
            rec,
            collector,
            inflight,
            offered: Offered::default(),
        };
        let report = run_tpcw_streaming(self.fixture.recorded.cfg.clone(), CPU_HZ, &mut sink);
        let LiveSink {
            rec,
            collector,
            inflight,
            offered,
        } = sink;
        rec.close(run);
        let collector = rec.span("collector.finalize", || collector.finalize());
        rec.close(root);
        // The model is deterministic: a different request count means
        // the pass did not run the configuration set-up recorded.
        assert_eq!(completed_requests(&report), self.fixture.recorded.requests);
        PassOut {
            collector,
            fed: None,
            offered,
            frame_latency_ns: inflight.latency_ns,
        }
    }

    fn fixture(&self) -> &Fixture {
        &self.fixture
    }
    fn fixture_mut(&mut self) -> &mut Fixture {
        &mut self.fixture
    }
    fn wire_input(&self) -> (StreamHeader, Vec<Vec<u8>>) {
        let r = &self.fixture.recorded;
        (
            r.header.clone(),
            r.batches.iter().map(wire::encode_batch).collect(),
        )
    }
}

// ---------------------------------------------------------------------
// ingest_wide / ingest_churn
// ---------------------------------------------------------------------

/// A staggered fleet stream, pre-encoded, replayed into a collector.
pub struct Ingest {
    fixture: Fixture,
    fleet_header: StreamHeader,
    header_frame: Vec<u8>,
    frames: Vec<Vec<u8>>,
    events: u64,
    cfg: CollectorConfig,
    churn: bool,
}

/// `ingest_churn` polls the collector on every `CHURN_POLL_EVERY`th
/// offer (and whenever the 4-deep queue refuses a frame).
const CHURN_POLL_EVERY: usize = 3;

/// The dense staggered fleet stream of `replicas` copies of a recorded
/// stack run (restated from `crates/bench::fleet_stream`): replica `r`
/// is process-remapped into stages `3r..3r+3` and starts `r * stagger`
/// epochs late; epochs in which nothing changed stay as empty batches.
fn fleet_stream(rec: &Recorded, replicas: usize, stagger: u64) -> (StreamHeader, Vec<EpochBatch>) {
    let total = fleet_epochs(rec.batches.len(), replicas, stagger);
    let sparse = leaf_stream(
        &rec.header,
        &rec.batches,
        0,
        replicas,
        stagger,
        total,
        CPU_HZ,
    );
    let mut it = sparse.into_iter().peekable();
    let dense = (0..total)
        .map(|ge| {
            it.next_if(|b| b.epoch == ge).unwrap_or(EpochBatch {
                epoch: ge,
                seq: ge,
                end: (ge + 1) * CPU_HZ,
                deltas: Vec::new(),
            })
        })
        .collect();
    (replica_header(&rec.header, replicas), dense)
}

impl Ingest {
    fn setup(seed: u64, smoke: bool, churn: bool) -> Ingest {
        let (clients, duration_s, replicas) = if smoke { (12, 20, 24) } else { (24, 60, 512) };
        let fixture = Fixture::new(fleet_config(clients, duration_s, seed), replicas);
        let (fleet_header, stream) = fleet_stream(&fixture.recorded, replicas, 2);
        let cfg = if churn {
            CollectorConfig {
                window_epochs: 1,
                max_queue: 4,
                ..CollectorConfig::default()
            }
        } else {
            CollectorConfig {
                window_epochs: 8,
                ..CollectorConfig::default()
            }
        };
        Ingest {
            fixture,
            header_frame: wire::encode_header(&fleet_header),
            fleet_header,
            frames: stream.iter().map(wire::encode_batch).collect(),
            events: stream.iter().map(EpochBatch::events).sum(),
            cfg,
            churn,
        }
    }

    /// Offers every frame and returns the collector un-finalized.
    fn ingest(&self, rec: &mut Recorder, inflight: &mut InFlight, o: &mut Offered) -> Collector {
        let mut c = rec.span("collector.new", || Collector::new(self.cfg.clone()));
        let started = rec.span("collector.start_wire", || c.start_wire(&self.header_frame));
        o.frame_errors += u64::from(started.is_err());
        o.events = self.events;
        for (i, frame) in self.frames.iter().enumerate() {
            o.frames += 1;
            let stamp = inflight.stamp();
            if !self.churn {
                match rec.span("collector.enqueue", || c.enqueue_wire(frame)) {
                    Ok(true) => inflight.accepted(stamp),
                    Ok(false) => o.refused_unbounded += 1,
                    Err(_) => o.frame_errors += 1,
                }
                rec.span("collector.drain", || c.drain());
                inflight.processed_all();
                continue;
            }
            // A slow consumer behind a bounded queue: a refused frame
            // is offered again after one poll, so nothing is lost and
            // the report must still match the reference.
            loop {
                match rec.span("collector.enqueue", || c.enqueue_wire(frame)) {
                    Ok(true) => {
                        inflight.accepted(stamp);
                        break;
                    }
                    Ok(false) => {
                        if rec.span("collector.drain", || c.poll()) {
                            inflight.processed(1);
                        }
                    }
                    Err(_) => {
                        o.frame_errors += 1;
                        break;
                    }
                }
            }
            if i % CHURN_POLL_EVERY == 0 && rec.span("collector.drain", || c.poll()) {
                inflight.processed(1);
            }
            o.snapshots += 1;
            o.last_snapshot = Some(rec.span("collector.snapshot", || c.snapshot()));
        }
        c
    }
}

impl Workload for Ingest {
    fn pass(&self, rec: &mut Recorder) -> PassOut {
        let mut inflight = InFlight::new(rec.is_on(), self.frames.len());
        let mut offered = Offered::default();
        let root = rec.open("pass");
        let c = self.ingest(rec, &mut inflight, &mut offered);
        let collector = rec.span("collector.finalize", || c.finalize());
        rec.close(root);
        // Whatever was still queued was processed inside finalize.
        inflight.processed_all();
        PassOut {
            collector,
            fed: None,
            offered,
            frame_latency_ns: inflight.latency_ns,
        }
    }

    fn fixture(&self) -> &Fixture {
        &self.fixture
    }
    fn fixture_mut(&mut self) -> &mut Fixture {
        &mut self.fixture
    }
    fn wire_input(&self) -> (StreamHeader, Vec<Vec<u8>>) {
        (self.fleet_header.clone(), self.frames.clone())
    }
    fn final_snapshot(&self) -> Option<LiveSnapshot> {
        let mut c = self.ingest(
            &mut Recorder::default(),
            &mut InFlight::new(false, 0),
            &mut Offered::default(),
        );
        c.drain();
        Some(c.snapshot())
    }
}

// ---------------------------------------------------------------------
// fed_lossy
// ---------------------------------------------------------------------

/// A leaf → regional → root federation over lossy links.
pub struct FedLossy {
    fixture: Fixture,
    global: StreamHeader,
    topology: FedTopology,
    streams: Vec<Vec<EpochBatch>>,
    total_epochs: u64,
    cfg: FederationConfig,
    plan_seed: u64,
}

/// Link faults of `fed_lossy`: 8 % dropped, 4 % duplicated, 8 % held
/// back 3 ticks.
const LOSSY_LINKS: ChannelFaults = ChannelFaults {
    drop_p: 0.08,
    dup_p: 0.04,
    delay_p: 0.08,
    delay_cycles: 3,
};

impl FedLossy {
    fn setup(seed: u64, smoke: bool) -> FedLossy {
        let (clients, duration_s, replicas, leaves, regions) = if smoke {
            (10, 12, 24, 4, 2)
        } else {
            (12, 20, 512, 32, 8)
        };
        let stagger = 2;
        let fixture = Fixture::new(fleet_config(clients, duration_s, seed), replicas);
        let rec = &fixture.recorded;
        let leaves_by_region = vec![leaves / regions; regions];
        let (topology, ranges) =
            fan_in_topology(replicas, rec.header.stages.len(), &leaves_by_region);
        let total_epochs = fleet_epochs(rec.batches.len(), replicas, stagger);
        let streams = ranges
            .iter()
            .map(|&(r0, r1)| {
                leaf_stream(
                    &rec.header,
                    &rec.batches,
                    r0,
                    r1,
                    stagger,
                    total_epochs,
                    CPU_HZ,
                )
            })
            .collect();
        FedLossy {
            global: replica_header(&rec.header, replicas),
            topology,
            streams,
            total_epochs,
            cfg: FederationConfig::default(),
            plan_seed: seed ^ 0xfed,
            fixture,
        }
    }
}

impl Workload for FedLossy {
    /// The loop of `apps::federation::run_federation`, re-stated so the
    /// leaf streams are built once in set-up and not inside the pass.
    fn pass(&self, rec: &mut Recorder) -> PassOut {
        let root = rec.open("pass");
        let policy = Box::new(FaultLinkPolicy::new(
            FaultPlan::new(self.plan_seed).default_channel_faults(LOSSY_LINKS),
        ));
        let mut fed = rec.span("federation.new", || {
            Federation::new(&self.global, &self.topology, self.cfg.clone(), policy)
        });
        let mut offered = Offered::default();
        let mut cursors = vec![0usize; self.streams.len()];
        let mut round: Vec<(usize, &EpochBatch)> = Vec::with_capacity(self.streams.len());
        for ge in 0..self.total_epochs {
            round.clear();
            for (leaf, stream) in self.streams.iter().enumerate() {
                if let Some(b) = stream.get(cursors[leaf]).filter(|b| b.epoch == ge) {
                    round.push((leaf, b));
                    cursors[leaf] += 1;
                    offered.events += b.events();
                }
            }
            offered.frames += round.len() as u64;
            rec.span("federation.feed_round", || fed.feed_round(&round));
            rec.span("federation.tick", || fed.tick());
        }
        let done = rec.span("federation.finalize", || fed.finalize());
        rec.close(root);
        PassOut {
            collector: done.output,
            fed: Some(FedSide {
                stats: done.stats,
                coverage_ppm: done.coverage_ppm,
                degraded: done.degraded,
                evidence: done.evidence,
                topology: done.topology,
            }),
            offered,
            frame_latency_ns: Vec::new(),
        }
    }

    fn fixture(&self) -> &Fixture {
        &self.fixture
    }
    fn fixture_mut(&mut self) -> &mut Fixture {
        &mut self.fixture
    }
    fn wire_input(&self) -> (StreamHeader, Vec<Vec<u8>>) {
        // Leaf by leaf: every stage belongs to one leaf, so each
        // stage's deltas still arrive in sequence order.
        let frames = self
            .streams
            .iter()
            .flatten()
            .map(wire::encode_batch)
            .collect();
        (self.global.clone(), frames)
    }
    fn leaf_streams(&self) -> Option<(&[Vec<EpochBatch>], u64)> {
        Some((&self.streams, self.cfg.flush_every))
    }
}

// ---------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------

/// Undelivered mass across the federation's ledger.
pub fn mass_loss(ev: &FederationEvidence) -> u64 {
    let truth: u64 = ev.subtrees.iter().map(|s| s.truth).sum();
    let delivered: u64 = ev.subtrees.iter().map(|s| s.delivered).sum();
    truth.saturating_sub(delivered)
}

/// Checks one pass against the batch reference; returns what failed.
/// `full` adds the byte-for-byte text identity (stitched, crosstalk,
/// `dumps_json`, dict) that the fingerprint stands in for on every
/// other pass. Injected link loss on `fed_lossy` is the workload, not
/// a failure; anything it leaves unhealed is.
pub fn check_pass(reference: &Reference, out: &PassOut, full: bool) -> Vec<&'static str> {
    let report = &out.collector.report;
    let want = &reference.report;
    let s = &out.collector.stats;
    let o = &out.offered;
    let mut checks = vec![
        (
            report.fingerprint() == reference.fingerprint,
            "report fingerprint differs from batch",
        ),
        (o.frame_errors == 0, "a clean frame was answered with Err"),
        (
            o.refused_unbounded == 0,
            "an unbounded queue refused a frame",
        ),
        (o.events > 0, "no events offered"),
        (!s.used_fallback, "collector used the batch fallback"),
        (s.pending_walks_at_flush == 0, "pending walks at flush"),
        (s.pending_edges_at_flush == 0, "pending edges at flush"),
        (s.wire_errors == 0, "collector counted wire errors"),
    ];
    match &out.fed {
        None => checks.extend([
            (
                s.events == o.events,
                "collector events differ from events offered",
            ),
            (
                s.wire_frames == o.frames,
                "collector frames differ from frames offered",
            ),
        ]),
        Some(f) => checks.extend([
            (
                f.stats.leaf_events_in == o.events,
                "leaf events differ from events offered",
            ),
            (mass_loss(&f.evidence) == 0, "federation ledger lost mass"),
            (
                check_federation(&f.evidence).is_empty(),
                "check_federation found a violation",
            ),
            (f.coverage_ppm == 1_000_000, "coverage below 100 %"),
            (f.degraded.is_empty(), "a subtree finalized degraded"),
            (
                f.stats.wire_decode_errors == 0,
                "a link frame failed to decode",
            ),
        ]),
    }
    if full {
        checks.extend([
            (
                report.stitched_text() == want.stitched_text(),
                "stitched text differs",
            ),
            (
                report.crosstalk_text() == want.crosstalk_text(),
                "crosstalk text differs",
            ),
            (report.dumps_json == want.dumps_json, "dumps_json differs"),
            (report.dict == want.dict, "context dictionary differs"),
        ]);
    }
    checks
        .into_iter()
        .filter_map(|(holds, what)| (!holds).then_some(what))
        .collect()
}
