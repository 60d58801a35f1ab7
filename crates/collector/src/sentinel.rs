//! Always-on sentinel: SLO budgets evaluated over retained epochs.
//!
//! The collector's live tier answers "what is the profile right now";
//! the sentinel answers "is the service still inside its budget, and
//! if not, exactly when did it leave". It consumes one cheap
//! [`EpochObs`] per epoch (no snapshots, no cloning) and evaluates a
//! [`SloBudget`] continuously:
//!
//! - **Tail latency per tier**: a deterministic streaming quantile
//!   sketch ([`QuantileSketch`]) over the per-epoch cycles each stage
//!   added, evaluated over the retained window of recent epochs; the
//!   configured quantile exceeding the stage's budget trips the
//!   sentinel.
//! - **Crosstalk mass**: the same sketch over per-epoch crosstalk wait
//!   cycles.
//! - **Quarantine pressure**: cumulative frames the self-healing
//!   ingest had to quarantine.
//!
//! Everything is a pure function of the delta stream content: two runs
//! of the same scenario trip at the same epoch with the same observed
//! value, which is what makes an anomaly capture replayable at all.
//!
//! [`SentinelSink`] packages the watchdog as a [`DeltaSink`]: it owns
//! a [`Collector`], feeds it the stream one batch at a time, observes
//! how far the collector's running totals moved across each batch
//! (the stage accumulators' mass and pair wait, the quarantine count),
//! hands that to a [`Sentinel`], and keeps a bounded ring of periodic
//! [`LiveSnapshot`]s for time travel — when the sentinel trips, the
//! ring holds the before-state and the trip snapshot holds the
//! after-state for a differential incident report.

use std::collections::VecDeque;
use whodunit_core::delta::{DeltaSink, EpochBatch, StageAccumulator, StreamHeader};
use whodunit_core::sketch::{quantile_ppm_over, rank_of, QuantileSketch};
use whodunit_report::live::LiveSnapshot;

use crate::{Collector, CollectorConfig, CollectorOutput};

/// One epoch as the sentinel's budgets see it: what the collector
/// added while it processed the epoch's batch, healed and caught-up
/// deltas included, in the epoch that applied them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochObs {
    /// Epoch index of the batch.
    pub epoch: u64,
    /// Virtual time (cycles) at the end of the epoch.
    pub end: u64,
    /// Change events the batch carried.
    pub events: u64,
    /// CCT cycles added per stage this epoch (indexed by stage).
    pub stage_cycles: Vec<u64>,
    /// Crosstalk-pair wait cycles added this epoch.
    pub xt_wait: u64,
    /// Frames quarantined while processing the batch.
    pub quarantined: u64,
}

/// The service-level budget the sentinel enforces. All thresholds are
/// optional; an empty budget never trips.
#[derive(Clone, Debug)]
pub struct SloBudget {
    /// Quantile (parts-per-million) the tail budgets are evaluated at,
    /// e.g. `990_000` for p99.
    pub quantile_ppm: u64,
    /// Per-stage budget on the chosen quantile of per-epoch added
    /// cycles: `(stage name, max cycles)`. Stage names not present in
    /// the stream are ignored.
    pub stage_cycles: Vec<(String, u64)>,
    /// Per-stage starvation floor: `(stage name, min cycles)`. Trips
    /// when even the *best* epoch in the retained window (the chosen
    /// quantile of the windowed sketch) falls below the floor — the
    /// signature of a slowed or wedged tier, whose profile cycles
    /// *drop* (the profiler records application-requested cycles, so a
    /// machine slowdown shows up as missing throughput, not extra
    /// cost).
    pub stage_floor: Vec<(String, u64)>,
    /// Budget on the chosen quantile of per-epoch crosstalk wait
    /// cycles (the hotspot-mass budget).
    pub xt_wait: Option<u64>,
    /// Budget on cumulative quarantined frames.
    pub max_quarantined: Option<u64>,
    /// Epochs observed before any budget is evaluated (lets the
    /// workload's warmup transient pass).
    pub warmup_epochs: u64,
    /// Retained evaluation window, in epochs: tail budgets are
    /// evaluated over a sketch of the most recent `window_epochs`
    /// observations, and the same window is what an anomaly capture
    /// snapshots.
    pub window_epochs: u64,
}

impl Default for SloBudget {
    fn default() -> Self {
        SloBudget {
            quantile_ppm: 990_000,
            stage_cycles: Vec::new(),
            stage_floor: Vec::new(),
            xt_wait: None,
            max_quarantined: None,
            warmup_epochs: 5,
            window_epochs: 8,
        }
    }
}

/// One budget violation: the dimension that tripped, when, and by how
/// much.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloViolation {
    /// Epoch at which the budget was exceeded.
    pub epoch: u64,
    /// Violated dimension: `tail:<stage>`, `starve:<stage>`,
    /// `xt-wait`, or `quarantine`.
    pub dimension: String,
    /// Observed value (cycles or frame count).
    pub observed: u64,
    /// The budgeted maximum it exceeded.
    pub budget: u64,
}

impl std::fmt::Display for SloViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] observed {} > budget {} at epoch {}",
            self.dimension, self.observed, self.budget, self.epoch
        )
    }
}

/// The SLO watchdog proper: per-stage quantile sketches plus a bounded
/// ring of retained observations. Trip state is sticky — the first
/// violation is the incident; later epochs keep being observed (the
/// retained window keeps sliding) but do not re-trip.
#[derive(Debug, Default)]
pub struct Sentinel {
    budget: SloBudget,
    /// Stage names in stream order (from the header).
    stages: Vec<String>,
    /// Budget per stage index, resolved from `budget.stage_cycles`.
    stage_budget: Vec<Option<u64>>,
    /// Floor per stage index, resolved from `budget.stage_floor`.
    stage_floor: Vec<Option<u64>>,
    /// Stage index → lifetime-sketch index. Sketches are interned per
    /// stage *name*: budgets resolve by name, so same-named stages
    /// (fleet replicas of one tier) share a baseline distribution —
    /// and a fleet of hundreds of stages allocates one fixed-size
    /// histogram per tier, not per stage.
    lifetime_of: Vec<usize>,
    /// Lifetime per-tier sketches (baseline reporting, not tripping),
    /// indexed through `lifetime_of`.
    lifetime: Vec<QuantileSketch>,
    /// Lifetime sketch of per-epoch crosstalk wait (baseline).
    lifetime_xt: QuantileSketch,
    /// Retained recent observations, newest at the back.
    window: VecDeque<EpochObs>,
    /// Per-stage `(max value, stream position)` over the retained
    /// window, maintained incrementally in [`Sentinel::observe`]: a new
    /// observation replaces the running max on `>=` (keeping the latest
    /// position so it expires as late as possible), and only when the
    /// recorded position slides out of the window does that one stage
    /// rescan its column. High quantiles over the small retained window
    /// always select rank == window length — the column max — so this
    /// turns the per-epoch evaluation from a full window walk into one
    /// compare per stage.
    win_max: Vec<(u64, u64)>,
    /// Reused scratch for the per-epoch crosstalk quantile (avoids an
    /// allocation per evaluation).
    xt_scratch: Vec<u64>,
    quarantined_total: u64,
    epochs_seen: u64,
    tripped: Option<SloViolation>,
}

impl Sentinel {
    /// A sentinel enforcing `budget`; call [`Sentinel::start`] before
    /// the first observation.
    pub fn new(budget: SloBudget) -> Self {
        Sentinel {
            budget,
            ..Sentinel::default()
        }
    }

    /// Binds the sentinel to the stream's stage set.
    pub fn start(&mut self, header: &StreamHeader) {
        self.stages = header.stages.iter().map(|s| s.stage_name.clone()).collect();
        let resolve = |table: &[(String, u64)]| -> Vec<Option<u64>> {
            self.stages
                .iter()
                .map(|name| table.iter().find(|(n, _)| n == name).map(|&(_, b)| b))
                .collect()
        };
        self.stage_budget = resolve(&self.budget.stage_cycles);
        self.stage_floor = resolve(&self.budget.stage_floor);
        let mut names: Vec<&str> = Vec::new();
        self.lifetime_of = self
            .stages
            .iter()
            .map(|name| match names.iter().position(|n| n == name) {
                Some(i) => i,
                None => {
                    names.push(name);
                    names.len() - 1
                }
            })
            .collect();
        self.lifetime = vec![QuantileSketch::new(); names.len()];
        self.lifetime_xt = QuantileSketch::new();
        self.window.clear();
        self.win_max = vec![(0, 0); self.stages.len()];
        self.xt_scratch.clear();
        self.quarantined_total = 0;
        self.epochs_seen = 0;
        self.tripped = None;
    }

    /// Feeds one epoch observation; returns the violation if this very
    /// epoch tripped the sentinel (sticky: at most one per stream).
    pub fn observe(&mut self, obs: EpochObs) -> Option<SloViolation> {
        self.epochs_seen += 1;
        self.quarantined_total += obs.quarantined;
        for (si, &c) in obs.stage_cycles.iter().enumerate() {
            if let Some(sk) = self
                .lifetime_of
                .get(si)
                .and_then(|&li| self.lifetime.get_mut(li))
            {
                sk.record(c);
            }
        }
        self.lifetime_xt.record(obs.xt_wait);
        self.window.push_back(obs);
        while self.window.len() as u64 > self.budget.window_epochs.max(1) {
            self.window.pop_front();
        }
        // Maintain the per-stage sliding-window maxima. Positions are
        // the monotone observation count, so the window front sits at
        // `epochs_seen - window.len()` regardless of epoch numbering.
        let pos = self.epochs_seen - 1;
        let front_pos = self.epochs_seen - self.window.len() as u64;
        let back = self.window.back().expect("just pushed");
        for si in 0..self.win_max.len() {
            let c = back.stage_cycles.get(si).copied().unwrap_or(0);
            if c >= self.win_max[si].0 {
                self.win_max[si] = (c, pos);
            } else if self.win_max[si].1 < front_pos {
                // The recorded max slid out: rescan this one column.
                let mut best = (0, front_pos);
                for (off, o) in self.window.iter().enumerate() {
                    let v = o.stage_cycles.get(si).copied().unwrap_or(0);
                    if v >= best.0 {
                        best = (v, front_pos + off as u64);
                    }
                }
                self.win_max[si] = best;
            }
        }
        if self.tripped.is_some() || self.epochs_seen <= self.budget.warmup_epochs {
            return None;
        }
        let v = self.evaluate();
        if let Some(v) = &v {
            self.tripped = Some(v.clone());
        }
        v
    }

    /// Evaluates every budget dimension over the retained window,
    /// returning the first violation in a fixed deterministic order
    /// (stages in stream order, then crosstalk, quarantine).
    fn evaluate(&mut self) -> Option<SloViolation> {
        let epoch = self.window.back().map(|o| o.epoch).unwrap_or(0);
        let q = self.budget.quantile_ppm;
        let w = self.window.len();
        let ns = self.stages.len();
        // The estimate only depends on the rank-selected value, so a
        // high quantile (rank == window length — always, for p99 over
        // the small retained window) needs just each stage's column
        // max, which `observe` already maintains incrementally in
        // `win_max`: the whole per-epoch evaluation is then one budget
        // check per stage, with no window walk at all. (For the max,
        // `bucket_hi(bucket_of(max)).min(max)` is `max` itself, so the
        // estimate IS the column max.) Other ranks take the
        // transposed-grid path. Both are bit-equal to a freshly built
        // sketch over the same values.
        let max_rank = w > 0 && rank_of(w as u64, q) == w as u64;
        let mut grid: Vec<u64> = vec![0; if max_rank { 0 } else { w * ns }];
        if !max_rank {
            for (wi, o) in self.window.iter().enumerate() {
                for (si, &c) in o.stage_cycles.iter().enumerate().take(ns) {
                    grid[si * w + wi] = c;
                }
            }
        }
        for si in 0..ns {
            let budget = self.stage_budget.get(si).copied().flatten();
            let floor = self.stage_floor.get(si).copied().flatten();
            if budget.is_none() && floor.is_none() {
                continue;
            }
            let est = if max_rank {
                self.win_max[si].0
            } else {
                let Some(est) = quantile_ppm_over(&mut grid[si * w..(si + 1) * w], q) else {
                    continue;
                };
                est
            };
            if let Some(budget) = budget {
                if est > budget {
                    return Some(SloViolation {
                        epoch,
                        dimension: format!("tail:{}", self.stages[si]),
                        observed: est,
                        budget,
                    });
                }
            }
            // The floor is a *sustained* starvation check: it engages
            // only on a full window, so even the window's best epoch
            // being under the floor means the whole retained window
            // starved.
            if let Some(floor) = floor {
                if self.window.len() as u64 >= self.budget.window_epochs && est < floor {
                    return Some(SloViolation {
                        epoch,
                        dimension: format!("starve:{}", self.stages[si]),
                        observed: est,
                        budget: floor,
                    });
                }
            }
        }
        if let Some(budget) = self.budget.xt_wait {
            self.xt_scratch.clear();
            self.xt_scratch
                .extend(self.window.iter().map(|o| o.xt_wait));
            if let Some(est) = quantile_ppm_over(&mut self.xt_scratch, q) {
                if est > budget {
                    return Some(SloViolation {
                        epoch,
                        dimension: "xt-wait".to_owned(),
                        observed: est,
                        budget,
                    });
                }
            }
        }
        if let Some(budget) = self.budget.max_quarantined {
            if self.quarantined_total > budget {
                return Some(SloViolation {
                    epoch,
                    dimension: "quarantine".to_owned(),
                    observed: self.quarantined_total,
                    budget,
                });
            }
        }
        None
    }

    /// The sticky trip state: the first violation, if any.
    pub fn tripped(&self) -> Option<&SloViolation> {
        self.tripped.as_ref()
    }

    /// The retained observation window (newest last).
    pub fn window(&self) -> &VecDeque<EpochObs> {
        &self.window
    }

    /// The budget this sentinel enforces.
    pub fn budget(&self) -> &SloBudget {
        &self.budget
    }

    /// Epochs observed so far.
    pub fn epochs_seen(&self) -> u64 {
        self.epochs_seen
    }

    /// The lifetime quantile estimate of per-epoch cycles for a
    /// stage's tier (baseline reporting; `None` before any
    /// observation). Same-named stages share one distribution.
    pub fn lifetime_quantile(&self, stage: usize, ppm: u64) -> Option<u64> {
        self.lifetime_of
            .get(stage)
            .and_then(|&li| self.lifetime.get(li))
            .and_then(|s| s.quantile_ppm(ppm))
    }

    /// The lifetime quantile estimate of per-epoch crosstalk wait.
    pub fn lifetime_xt_quantile(&self, ppm: u64) -> Option<u64> {
        self.lifetime_xt.quantile_ppm(ppm)
    }

    /// The stream's stage names, in stage order (empty before
    /// [`Sentinel::start`]).
    pub fn stages(&self) -> &[String] {
        &self.stages
    }
}

/// How many periodic snapshots the time-travel ring retains.
const SNAPSHOT_RING: usize = 8;

/// A [`DeltaSink`] that wires a [`Collector`] to a [`Sentinel`] and
/// keeps the time-travel snapshot ring. Feed it a stream (e.g. via
/// `run_tpcw_streaming`), then pull the trip state and the
/// before/after snapshots for the incident.
#[derive(Debug)]
pub struct SentinelSink {
    collector: Collector,
    /// The collector's running totals after the last batch: per-stage
    /// mass, pair wait summed over the stages, frames quarantined.
    seen: (Vec<u64>, u64, u64),
    sentinel: Sentinel,
    /// Take a periodic snapshot every this many epochs (the time-travel
    /// granularity).
    snapshot_every: u64,
    /// Periodic `(epoch, snapshot)` ring, oldest first.
    ring: VecDeque<(u64, LiveSnapshot)>,
    /// Snapshot taken at the trip epoch (the "after" state).
    trip_snapshot: Option<LiveSnapshot>,
}

impl SentinelSink {
    /// Builds the sink over a collector configured by `cfg`.
    pub fn new(cfg: CollectorConfig, budget: SloBudget) -> Self {
        SentinelSink {
            collector: Collector::new(cfg),
            seen: Default::default(),
            sentinel: Sentinel::new(budget),
            snapshot_every: 8,
            ring: VecDeque::new(),
            trip_snapshot: None,
        }
    }

    /// Overrides the periodic-snapshot cadence (epochs).
    pub fn with_snapshot_every(mut self, epochs: u64) -> Self {
        self.snapshot_every = epochs.max(1);
        self
    }

    /// The watchdog state.
    pub fn sentinel(&self) -> &Sentinel {
        &self.sentinel
    }

    /// The retained periodic snapshots, oldest first.
    pub fn snapshots(&self) -> &VecDeque<(u64, LiveSnapshot)> {
        &self.ring
    }

    /// The differential pair for an incident: the newest retained
    /// snapshot from before the trip epoch, and the snapshot taken at
    /// the trip itself. `None` until the sentinel has tripped.
    pub fn before_after(&self) -> Option<(&LiveSnapshot, &LiveSnapshot)> {
        let trip = self.sentinel.tripped()?;
        let after = self.trip_snapshot.as_ref()?;
        let before = self
            .ring
            .iter()
            .rev()
            .find(|(e, _)| *e < trip.epoch)
            .map(|(_, s)| s)?;
        Some((before, after))
    }

    /// Finalizes the wrapped collector, returning its output plus the
    /// sentinel and the trip snapshot.
    pub fn finish(self) -> (CollectorOutput, Sentinel, Option<LiveSnapshot>) {
        (self.collector.finalize(), self.sentinel, self.trip_snapshot)
    }
}

impl DeltaSink for SentinelSink {
    fn on_start(&mut self, header: &StreamHeader) {
        self.collector.start(header);
        self.seen = (vec![0; header.stages.len()], 0, 0);
        self.sentinel.start(header);
        self.ring.clear();
        self.trip_snapshot = None;
    }

    /// Processes the batch, the only one queued, and observes it.
    fn on_batch(&mut self, batch: EpochBatch) {
        let (epoch, end, events) = (batch.epoch, batch.end, batch.events());
        self.collector.enqueue(batch);
        self.collector.drain();
        let (c, (mass, wait, quarantined)) = (&self.collector, &mut self.seen);
        let moved = |seen: &mut u64, now: u64| now - std::mem::replace(seen, now);
        let obs = EpochObs {
            epoch,
            end,
            events,
            stage_cycles: (c.accs.iter().zip(mass))
                .map(|(acc, seen)| moved(seen, acc.mass()))
                .collect(),
            xt_wait: moved(wait, c.accs.iter().map(StageAccumulator::pair_wait).sum()),
            quarantined: moved(quarantined, c.stats.quarantined),
        };
        if epoch % self.snapshot_every == 0 {
            self.ring.push_back((epoch, self.collector.snapshot()));
            while self.ring.len() > SNAPSHOT_RING {
                self.ring.pop_front();
            }
        }
        if self.sentinel.observe(obs).is_some() {
            self.trip_snapshot = Some(self.collector.snapshot());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whodunit_core::delta::diff_dump;
    use whodunit_core::stitch::{
        DumpAtom, DumpCct, DumpContext, DumpCrosstalkPair, DumpCrosstalkWaiter, DumpNode, StageDump,
    };

    fn obs(epoch: u64, db_cycles: u64) -> EpochObs {
        EpochObs {
            epoch,
            end: epoch * 100,
            events: 1,
            stage_cycles: vec![10, db_cycles],
            xt_wait: 0,
            quarantined: 0,
        }
    }

    fn header() -> StreamHeader {
        use whodunit_core::delta::StreamStage;
        StreamHeader {
            stages: vec![
                StreamStage {
                    proc: 1,
                    stage_name: "front".into(),
                },
                StreamStage {
                    proc: 2,
                    stage_name: "db".into(),
                },
            ],
        }
    }

    #[test]
    fn trips_on_the_budgeted_stage_and_is_sticky() {
        let mut s = Sentinel::new(SloBudget {
            stage_cycles: vec![("db".into(), 1000)],
            warmup_epochs: 2,
            window_epochs: 4,
            ..SloBudget::default()
        });
        s.start(&header());
        for e in 0..5 {
            assert_eq!(s.observe(obs(e, 500)), None, "epoch {e}");
        }
        let v = s.observe(obs(5, 5000)).expect("must trip");
        assert_eq!(v.dimension, "tail:db");
        assert_eq!(v.epoch, 5);
        assert!(v.observed > 1000 && v.budget == 1000);
        assert_eq!(s.observe(obs(6, 9000)), None, "sticky");
        assert_eq!(s.tripped().unwrap().epoch, 5);
    }

    #[test]
    fn warmup_suppresses_and_unbudgeted_stages_never_trip() {
        let mut s = Sentinel::new(SloBudget {
            stage_cycles: vec![("front".into(), 1_000_000)],
            warmup_epochs: 3,
            ..SloBudget::default()
        });
        s.start(&header());
        // Violations of db cycles don't matter: db has no budget, and
        // the first epochs are warmup anyway.
        for e in 0..10 {
            assert_eq!(s.observe(obs(e, u64::MAX / 2)), None);
        }
        assert!(s.tripped().is_none());
        assert_eq!(s.epochs_seen(), 10);
    }

    #[test]
    fn quarantine_budget_counts_cumulatively() {
        let mut s = Sentinel::new(SloBudget {
            max_quarantined: Some(2),
            warmup_epochs: 0,
            ..SloBudget::default()
        });
        s.start(&header());
        let mut o = obs(0, 0);
        o.quarantined = 2;
        assert_eq!(s.observe(o), None, "at budget is not over budget");
        let mut o = obs(1, 0);
        o.quarantined = 1;
        let v = s.observe(o).expect("cumulative 3 > 2");
        assert_eq!(v.dimension, "quarantine");
        assert_eq!(v.observed, 3);
    }

    #[test]
    fn starvation_floor_needs_a_full_starved_window() {
        let mut s = Sentinel::new(SloBudget {
            stage_floor: vec![("db".into(), 100)],
            warmup_epochs: 0,
            window_epochs: 3,
            ..SloBudget::default()
        });
        s.start(&header());
        // One good epoch keeps the windowed max above the floor.
        s.observe(obs(0, 500));
        assert_eq!(s.observe(obs(1, 10)), None);
        assert_eq!(s.observe(obs(2, 10)), None, "window still holds epoch 0");
        let v = s
            .observe(obs(3, 10))
            .expect("3 starved epochs fill the window");
        assert_eq!(v.dimension, "starve:db");
        assert!(v.observed < 100 && v.budget == 100);
    }

    /// Stage `name`'s snapshots at epochs `1..=n`: two contexts whose
    /// CCT cycles grow by a different amount each epoch (a new node
    /// from epoch 3 on), and from epoch 2 a crosstalk pair and a waiter
    /// row whose waits grow (the waiter row's wait is not pair wait).
    fn xt_snapshots(proc: u32, name: &str, scale: u64, n: u64) -> Vec<StageDump> {
        let node = |frame, parent, cycles| DumpNode {
            frame,
            parent,
            samples: 1,
            cycles,
            calls: 1,
        };
        (1..=n)
            .map(|e| {
                let mut nodes = vec![node(None, None, scale * e * (e + 1) / 2)];
                if e >= 3 {
                    nodes.push(node(Some(1), Some(0), 5 * e));
                }
                let xt = e >= 2;
                StageDump {
                    proc,
                    stage_name: name.into(),
                    frames: vec!["main".into(), "lock".into()],
                    contexts: vec![
                        DumpContext::default(),
                        DumpContext {
                            atoms: vec![DumpAtom::Frame(1)].into(),
                        },
                    ],
                    ccts: vec![
                        DumpCct { ctx: 0, nodes },
                        DumpCct {
                            ctx: 1,
                            nodes: vec![node(None, None, 3 * e)],
                        },
                    ],
                    crosstalk_pairs: xt
                        .then_some(DumpCrosstalkPair {
                            waiter: 1,
                            holder: 0,
                            count: e,
                            total_wait: 7 * scale * e,
                        })
                        .into_iter()
                        .collect(),
                    crosstalk_waiters: xt
                        .then_some(DumpCrosstalkWaiter {
                            waiter: 1,
                            count: e,
                            total_wait: 1000 * e,
                        })
                        .into_iter()
                        .collect(),
                    ..StageDump::default()
                }
            })
            .collect()
    }

    /// Seven epochs of `header()`'s two stages, one delta each.
    fn xt_stream() -> Vec<EpochBatch> {
        let n = 7;
        let front = xt_snapshots(1, "front", 100, n);
        let db = xt_snapshots(2, "db", 40, n);
        (0..n as usize)
            .map(|e| {
                let delta = |stage, snaps: &[StageDump]| {
                    let prev = e.checked_sub(1).map(|p| &snaps[p]);
                    diff_dump(stage, e as u64, prev, &snaps[e]).expect("every epoch grows")
                };
                EpochBatch {
                    epoch: e as u64,
                    seq: e as u64,
                    end: (e as u64 + 1) * 100,
                    deltas: vec![delta(0, &front), delta(1, &db)],
                }
            })
            .collect()
    }

    /// Every observation a sink made of `stream`, as
    /// `(epoch, end, events, stage_cycles, xt_wait, quarantined)`.
    fn observed(stream: &[EpochBatch]) -> Vec<(u64, u64, u64, Vec<u64>, u64, u64)> {
        let budget = SloBudget {
            window_epochs: 64,
            ..SloBudget::default()
        };
        let mut sink = SentinelSink::new(CollectorConfig::default(), budget);
        sink.on_start(&header());
        for b in stream {
            sink.on_batch(b.clone());
        }
        let window = sink.sentinel().window().iter().cloned();
        let row = |o: EpochObs| {
            let EpochObs {
                epoch,
                end,
                events,
                stage_cycles,
                xt_wait,
                quarantined,
            } = o;
            (epoch, end, events, stage_cycles, xt_wait, quarantined)
        };
        window.map(row).collect()
    }

    /// The sink's observations, field by field at every epoch, are the
    /// ones the collector's former per-epoch observation ring recorded
    /// for the same streams (the literals were read from it). A clean
    /// stream; then the same stream damaged: front's deltas 2 and 3
    /// swapped (2 parks, so epoch 2 adds nothing for front, and epoch 3
    /// applies both, the healed cycles landing in the epoch that healed
    /// them), and db's delta 4 corrupt (quarantined; with no resync
    /// source, db halts and adds nothing after).
    #[test]
    fn the_sink_observes_what_each_batch_added() {
        let clean = xt_stream();
        assert_eq!(
            observed(&clean),
            [
                (0, 100, 12, vec![103, 43], 0, 0),
                (1, 200, 8, vec![203, 83], 1960, 0),
                (2, 300, 10, vec![318, 138], 980, 0),
                (3, 400, 10, vec![408, 168], 980, 0),
                (4, 500, 10, vec![508, 208], 980, 0),
                (5, 600, 10, vec![608, 248], 980, 0),
                (6, 700, 10, vec![708, 288], 980, 0),
            ]
        );
        let mut damaged = clean;
        let (d2, d3) = (damaged[2].deltas[0].clone(), damaged[3].deltas[0].clone());
        (damaged[2].deltas[0], damaged[3].deltas[0]) = (d3, d2);
        damaged[4].deltas[1].checksum ^= 1;
        assert_eq!(
            observed(&damaged),
            [
                (0, 100, 12, vec![103, 43], 0, 0),
                (1, 200, 8, vec![203, 83], 1960, 0),
                (2, 300, 10, vec![0, 138], 280, 0),
                (3, 400, 10, vec![726, 168], 1680, 0),
                (4, 500, 10, vec![508, 0], 700, 1),
                (5, 600, 10, vec![608, 0], 700, 0),
                (6, 700, 10, vec![708, 0], 700, 0),
            ]
        );
    }

    #[test]
    fn window_is_bounded_and_slides() {
        let mut s = Sentinel::new(SloBudget {
            window_epochs: 3,
            ..SloBudget::default()
        });
        s.start(&header());
        for e in 0..10 {
            s.observe(obs(e, e));
        }
        let epochs: Vec<u64> = s.window().iter().map(|o| o.epoch).collect();
        assert_eq!(epochs, vec![7, 8, 9]);
    }
}
