//! The snapshot gate: every live snapshot held to batch `analyze` over
//! the same prefix of the stream.
//!
//! `Collector::finalize` is `analyze` over the collector's dumps, so the
//! incremental state (origin trees, tier cycles, the crosstalk table)
//! is read only by `Collector::snapshot`, and this is where it is
//! checked. A [`SnapshotGate`] keeps its own accumulators fed with the
//! batches the collector drained; wherever no origin walk is pending
//! (a pending walk's mass is not folded yet, by design), the snapshot
//! must show what the batch report over the accumulated dumps says:
//!
//! - top paths: the top 5 profiles by (total cycles desc, origin asc),
//!   with label, cycles and samples, and as many origins in all;
//! - the hot path, compared only where the top exclusive sample count
//!   is unique: ties break by frame id, and the collector's local frame
//!   ids are not the report's global ones;
//! - tiers: stage names equal to `OriginProfile::stages`, with cycles
//!   summing to the path's cycles;
//! - hotspots: the top 5 `matrix.pairs` by (total_wait desc, key asc).
//!
//! Shared by the suites that declare `mod snapshot_oracle;`.

use whodunit_collector::Collector;
use whodunit_core::delta::{EpochBatch, StageAccumulator, StreamHeader};
use whodunit_core::pipeline::{analyze, OriginProfile, PipelineConfig, PipelineReport};
use whodunit_report::live::{Hotspot, LiveSnapshot};

/// How many rows a snapshot ranks (the collector's `TOP_K`).
const TOP_K: usize = 5;

/// What a gate compared.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Snapshots compared with the batch report.
    pub snapshots: u64,
    /// Hot paths among them that were unique, and so compared.
    pub hot_paths: u64,
    /// Snapshots skipped because an origin walk was pending.
    pub skipped: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, t: Tally) {
        self.snapshots += t.snapshots;
        self.hot_paths += t.hot_paths;
        self.skipped += t.skipped;
    }
}

impl std::fmt::Display for Tally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} snapshots compared ({} hot paths), {} skipped on a pending walk",
            self.snapshots, self.hot_paths, self.skipped
        )
    }
}

/// A test-side replica of the collector's accumulators plus the count
/// of what it compared.
pub struct SnapshotGate {
    accs: Vec<StageAccumulator>,
    /// What this gate compared so far.
    pub tally: Tally,
}

impl SnapshotGate {
    /// A gate for a stream under `header`.
    pub fn new(header: &StreamHeader) -> Self {
        SnapshotGate {
            accs: header.stages.iter().map(StageAccumulator::new).collect(),
            tally: Tally::default(),
        }
    }

    /// Feeds `batch`, which `c` has just drained, and holds `c`'s
    /// snapshot to `analyze` over the dumps so far. The stream must be
    /// clean: every delta applies.
    pub fn after(&mut self, batch: &EpochBatch, c: &Collector, what: &str) {
        for d in &batch.deltas {
            self.accs[d.stage].apply(d).expect("a clean stream applies");
        }
        let snap = c.snapshot();
        if snap.pending_walks > 0 {
            self.tally.skipped += 1;
            return;
        }
        let dumps = self.accs.iter().map(StageAccumulator::to_dump).collect();
        let report = analyze(dumps, PipelineConfig::default());
        let what = format!("{what}, epoch {}", snap.epoch);
        self.tally.hot_paths += check(&snap, &report, &what);
        self.tally.snapshots += 1;
    }
}

/// Holds one snapshot to the batch report over the same dumps; returns
/// how many hot paths it compared.
fn check(snap: &LiveSnapshot, report: &PipelineReport, what: &str) -> u64 {
    let label = |(s, c): (usize, u32)| report.origin_label(s, c);
    assert_eq!(
        snap.origins,
        report.profiles.len() as u64,
        "origin count: {what}"
    );
    let cycles = |p: &OriginProfile| p.cct.total().cycles;
    let mut ranked: Vec<&OriginProfile> = report.profiles.iter().collect();
    ranked.sort_by(|a, b| cycles(b).cmp(&cycles(a)).then(a.origin.cmp(&b.origin)));
    ranked.truncate(TOP_K);
    assert_eq!(snap.top_paths.len(), ranked.len(), "top paths: {what}");
    assert_eq!(snap.tiers.len(), ranked.len(), "tiers: {what}");
    let mut hot_paths = 0;
    for ((p, top), tier) in ranked.iter().zip(&snap.top_paths).zip(&snap.tiers) {
        let total = p.cct.total();
        let want = (label(p.origin), total.cycles, total.samples);
        assert_eq!(
            (top.origin.clone(), top.cycles, top.samples),
            want,
            "top path: {what}"
        );
        let hot = p.cct.hot_paths(2);
        let tied = matches!(hot.as_slice(), [a, b] if a.1.samples == b.1.samples);
        if !tied {
            let path: Vec<&str> = hot.first().map_or_else(Vec::new, |(frames, _)| {
                frames
                    .iter()
                    .map(|f| report.frames[f.0 as usize].as_str())
                    .collect()
            });
            assert_eq!(top.path, path, "hot path of {}: {what}", top.origin);
            hot_paths += 1;
        }
        assert_eq!(tier.origin, top.origin, "tier origin: {what}");
        let names: Vec<&str> = tier.stages.iter().map(|(n, _)| n.as_str()).collect();
        let stages: Vec<&str> = p
            .stages
            .iter()
            .map(|&si| report.stages[si].stage_name.as_str())
            .collect();
        assert_eq!(names, stages, "tier stages of {}: {what}", top.origin);
        let sum: u64 = tier.stages.iter().map(|&(_, c)| c).sum();
        assert_eq!(sum, top.cycles, "tier cycles of {}: {what}", top.origin);
    }

    let mut pairs: Vec<_> = report.matrix.pairs.iter().collect();
    pairs.sort_by(|a, b| (b.2.total_wait, (a.0, a.1)).cmp(&(a.2.total_wait, (b.0, b.1))));
    let hotspots: Vec<Hotspot> = pairs
        .into_iter()
        .take(TOP_K)
        .map(|&(w, h, s)| Hotspot {
            waiter: label(w),
            holder: label(h),
            count: s.count,
            total_wait: s.total_wait,
        })
        .collect();
    assert_eq!(snap.hotspots, hotspots, "hotspots: {what}");
    hot_paths
}
