//! Live collector snapshot rendering.
//!
//! The streaming collector (`whodunit-collector`) answers queries at
//! any epoch — top-k transaction paths by cost, per-origin tier
//! latency breakdown, crosstalk hotspots — and packages the answers as
//! a [`LiveSnapshot`]: plain presentation data, already labeled and
//! ordered, with no collector internals attached. This module renders
//! that snapshot as deterministic text (the golden-file surface for
//! the streaming tier).

use std::fmt::Write as _;

/// Ingest-side accounting: how much the collector has consumed and how
/// far behind the emitting tiers it has fallen.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LagStats {
    /// Epoch batches ingested so far.
    pub batches: u64,
    /// Individual change events ingested so far.
    pub events: u64,
    /// Sequence gaps detected (batches lost or reordered).
    pub seq_gaps: u64,
    /// Batches currently queued but not yet processed.
    pub queued: u64,
    /// High-water mark of the ingest queue depth, all-time.
    pub peak_queued: u64,
    /// High-water mark of the current fill/drain cycle: resets when a
    /// batch is enqueued onto an empty queue, so long-running reuse of
    /// one collector does not pin the live view at an ancient peak.
    pub cycle_peak_queued: u64,
    /// Offers rejected because the ingest queue was full.
    pub throttled: u64,
}

/// One entry of the top-k transaction paths by cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopPath {
    /// Origin label (`stage:context`).
    pub origin: String,
    /// Total inclusive cycles across the origin's merged CCT.
    pub cycles: u64,
    /// Total samples across the origin's merged CCT.
    pub samples: u64,
    /// Hottest call path, root-first frame names.
    pub path: Vec<String>,
}

/// Per-origin tier latency breakdown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TierSlice {
    /// Origin label (`stage:context`).
    pub origin: String,
    /// `(stage name, cycles attributed)` in stage order.
    pub stages: Vec<(String, u64)>,
}

/// One crosstalk hotspot: an ordered waiter/holder origin pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hotspot {
    /// Waiting origin label.
    pub waiter: String,
    /// Blamed holding origin label.
    pub holder: String,
    /// Number of waits.
    pub count: u64,
    /// Total cycles waited.
    pub total_wait: u64,
}

/// A point-in-time view of the streaming collector.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LiveSnapshot {
    /// Epoch the snapshot was taken at.
    pub epoch: u64,
    /// Virtual time (cycles) at the end of that epoch.
    pub now: u64,
    /// Origins the collector has folded so far.
    pub origins: u64,
    /// Origin walks still blocked on an unseen synopsis.
    pub pending_walks: u64,
    /// Request edges still blocked on an unseen synopsis.
    pub pending_edges: u64,
    /// Ingest/backpressure accounting.
    pub lag: LagStats,
    /// Explicit degradation markers: one line per stage whose stream
    /// needed quarantine, resync, or stall handling. Empty on a clean
    /// stream.
    pub degraded: Vec<String>,
    /// Top-k transaction paths by cost, highest first.
    pub top_paths: Vec<TopPath>,
    /// Tier breakdowns for the same origins, same order.
    pub tiers: Vec<TierSlice>,
    /// Crosstalk hotspots, highest total wait first.
    pub hotspots: Vec<Hotspot>,
}

/// Renders a [`LiveSnapshot`] as deterministic text.
pub fn render_live_snapshot(s: &LiveSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== live collector snapshot @ epoch {} (t={}) ==",
        s.epoch, s.now
    );
    let _ = writeln!(out, "origins: {}", s.origins);
    let _ = writeln!(
        out,
        "pending: {} walks, {} edges",
        s.pending_walks, s.pending_edges
    );
    let _ = writeln!(
        out,
        "ingest: {} batches, {} events, {} seq gaps, queue {} (peak {} / cycle {}), throttled {}",
        s.lag.batches,
        s.lag.events,
        s.lag.seq_gaps,
        s.lag.queued,
        s.lag.peak_queued,
        s.lag.cycle_peak_queued,
        s.lag.throttled
    );
    for d in &s.degraded {
        let _ = writeln!(out, "degraded: {d}");
    }
    let _ = writeln!(out, "\ntop transaction paths by cost:");
    for (i, t) in s.top_paths.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {}. {}  cycles {} samples {}",
            i + 1,
            t.origin,
            t.cycles,
            t.samples
        );
        if !t.path.is_empty() {
            let _ = writeln!(out, "     {}", t.path.join(" -> "));
        }
    }
    let _ = writeln!(out, "\ntier breakdown:");
    for t in &s.tiers {
        let cells: Vec<String> = t
            .stages
            .iter()
            .map(|(name, cy)| format!("{name} {cy}"))
            .collect();
        let _ = writeln!(out, "  {}: {}", t.origin, cells.join(" | "));
    }
    let _ = writeln!(out, "\ncrosstalk hotspots:");
    for h in &s.hotspots {
        let _ = writeln!(
            out,
            "  {}  <-  {}  waits {} total {}",
            h.waiter, h.holder, h.count, h.total_wait
        );
    }
    out
}

/// The difference between two [`LiveSnapshot`]s of the same collector,
/// used by the sentinel's time-travel view to show what changed across
/// an anomaly window (before/after the violation).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LiveDiff {
    /// Epoch of the earlier snapshot.
    pub from_epoch: u64,
    /// Epoch of the later snapshot.
    pub to_epoch: u64,
    /// Batches ingested between the snapshots.
    pub d_batches: u64,
    /// Change events ingested between the snapshots.
    pub d_events: u64,
    /// Origins that entered/left/changed in the top-path ranking:
    /// `(origin label, cycles before, cycles after)`; absence renders
    /// as 0. Ordered by descending growth.
    pub origins: Vec<(String, u64, u64)>,
    /// Hotspots whose total wait grew: `(waiter, holder, wait before,
    /// wait after)`, ordered by descending growth.
    pub hotspots: Vec<(String, String, u64, u64)>,
    /// Degradation markers present after but not before.
    pub degraded_added: Vec<String>,
}

/// Computes the differential view between two snapshots (`before` must
/// be the earlier one).
pub fn diff_snapshots(before: &LiveSnapshot, after: &LiveSnapshot) -> LiveDiff {
    let prior_cycles = |s: &LiveSnapshot, origin: &str| {
        s.top_paths
            .iter()
            .find(|t| t.origin == origin)
            .map_or(0, |t| t.cycles)
    };
    let mut origins: Vec<(String, u64, u64)> = after
        .top_paths
        .iter()
        .map(|t| (t.origin.clone(), prior_cycles(before, &t.origin), t.cycles))
        .collect();
    for t in &before.top_paths {
        if !origins.iter().any(|(o, ..)| o == &t.origin) {
            origins.push((t.origin.clone(), t.cycles, prior_cycles(after, &t.origin)));
        }
    }
    origins.sort_by(|a, b| {
        let ga = a.2.saturating_sub(a.1);
        let gb = b.2.saturating_sub(b.1);
        (gb, &a.0).cmp(&(ga, &b.0))
    });

    let prior_wait = |s: &LiveSnapshot, w: &str, h: &str| {
        s.hotspots
            .iter()
            .find(|x| x.waiter == w && x.holder == h)
            .map_or(0, |x| x.total_wait)
    };
    let mut hotspots: Vec<(String, String, u64, u64)> = after
        .hotspots
        .iter()
        .map(|x| {
            (
                x.waiter.clone(),
                x.holder.clone(),
                prior_wait(before, &x.waiter, &x.holder),
                x.total_wait,
            )
        })
        .filter(|(_, _, b, a)| a > b)
        .collect();
    hotspots.sort_by(|a, b| {
        let ga = a.3.saturating_sub(a.2);
        let gb = b.3.saturating_sub(b.2);
        (gb, &a.0).cmp(&(ga, &b.0))
    });

    LiveDiff {
        from_epoch: before.epoch,
        to_epoch: after.epoch,
        d_batches: after.lag.batches.saturating_sub(before.lag.batches),
        d_events: after.lag.events.saturating_sub(before.lag.events),
        origins,
        hotspots,
        degraded_added: after
            .degraded
            .iter()
            .filter(|d| !before.degraded.contains(d))
            .cloned()
            .collect(),
    }
}

/// Renders a [`LiveDiff`] as deterministic text.
pub fn render_live_diff(d: &LiveDiff) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== live diff: epoch {} -> {} ({} batches, {} events) ==",
        d.from_epoch, d.to_epoch, d.d_batches, d.d_events
    );
    let _ = writeln!(out, "origin cycle growth:");
    for (o, b, a) in &d.origins {
        let _ = writeln!(out, "  {o}: {b} -> {a} (+{})", a.saturating_sub(*b));
    }
    if !d.hotspots.is_empty() {
        let _ = writeln!(out, "hotspot wait growth:");
        for (w, h, b, a) in &d.hotspots {
            let _ = writeln!(
                out,
                "  {w}  <-  {h}: {b} -> {a} (+{})",
                a.saturating_sub(*b)
            );
        }
    }
    for m in &d.degraded_added {
        let _ = writeln!(out, "newly degraded: {m}");
    }
    out
}

/// How a captured incident was shrunk: scenario size before and after
/// the greedy reduction, plus the runs the reduction cost.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShrinkSummary {
    /// Fault-plan entries before shrinking.
    pub faults_before: u64,
    /// Fault-plan entries after shrinking.
    pub faults_after: u64,
    /// Workload clients before shrinking.
    pub clients_before: u64,
    /// Workload clients after shrinking.
    pub clients_after: u64,
}

/// Replay verification of a captured repro.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Fingerprint of the captured scenario's run.
    pub fingerprint: u64,
    /// Whether a second run produced the identical fingerprint.
    pub bit_identical: bool,
    /// Whether the replay re-tripped the recorded dimension.
    pub retripped: bool,
}

/// Everything the incident renderer needs, as plain data: the sentinel
/// trip, the capture window, the differential snapshots, and (after
/// capture finishes) the shrink and replay summaries. A card with
/// `shrink`/`replay` still `None` renders as a mid-violation report.
#[derive(Clone, Debug, Default)]
pub struct IncidentCard {
    /// Violated dimension (`tail:<stage>`, `starve:<stage>`,
    /// `xt-wait`, `quarantine`).
    pub dimension: String,
    /// Epoch the sentinel tripped at.
    pub detected_epoch: u64,
    /// Observed value at the trip.
    pub observed: u64,
    /// The budget it exceeded.
    pub budget: u64,
    /// Quantile (ppm) the budget was evaluated at.
    pub quantile_ppm: u64,
    /// Capture window: first and last retained epoch (inclusive).
    pub window: (u64, u64),
    /// Known fault onset epoch, when the harness planted the fault.
    pub onset_epoch: Option<u64>,
    /// Degradation markers active at detection.
    pub degraded: Vec<String>,
    /// Shrink outcome; `None` while capture is still in progress.
    pub shrink: Option<ShrinkSummary>,
    /// Replay verification; `None` while capture is still in progress.
    pub replay: Option<ReplaySummary>,
    /// Newest retained snapshot from before the violation.
    pub before: Option<LiveSnapshot>,
    /// Snapshot taken at detection.
    pub after: Option<LiveSnapshot>,
}

/// Renders an incident report: the trip, detection latency, the
/// before/after differential, shrink and replay results, and the full
/// state at detection. Deterministic text, suitable for golden files.
pub fn render_incident(c: &IncidentCard) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== incident: {} @ epoch {} ==",
        c.dimension, c.detected_epoch
    );
    let _ = writeln!(
        out,
        "budget: p{:.2} per-epoch value {} exceeded: observed {}",
        c.quantile_ppm as f64 / 10_000.0,
        c.budget,
        c.observed
    );
    let _ = writeln!(out, "window: epochs {}..={}", c.window.0, c.window.1);
    if let Some(onset) = c.onset_epoch {
        let _ = writeln!(
            out,
            "onset: epoch {onset} (detection latency {} epochs)",
            c.detected_epoch.saturating_sub(onset)
        );
    }
    for m in &c.degraded {
        let _ = writeln!(out, "degraded: {m}");
    }
    match &c.shrink {
        Some(s) => {
            let _ = writeln!(
                out,
                "shrink: faults {} -> {}, clients {} -> {}",
                s.faults_before, s.faults_after, s.clients_before, s.clients_after
            );
        }
        None => {
            let _ = writeln!(out, "capture: in progress");
        }
    }
    if let Some(r) = &c.replay {
        let _ = writeln!(
            out,
            "replay: fingerprint {:016x} {}, {}",
            r.fingerprint,
            if r.bit_identical {
                "bit-identical"
            } else {
                "DIVERGED"
            },
            if r.retripped {
                "re-tripped"
            } else {
                "DID NOT RE-TRIP"
            }
        );
    }
    if let (Some(b), Some(a)) = (&c.before, &c.after) {
        out.push('\n');
        out.push_str(&render_live_diff(&diff_snapshots(b, a)));
    }
    if let Some(a) = &c.after {
        out.push('\n');
        let _ = writeln!(out, "-- state at detection --");
        out.push_str(&render_live_snapshot(a));
    }
    out
}

/// One node of the federation tree, as the root's operator sees it:
/// liveness, lag, delivery progress, and children. Presentation data
/// only — the collector crate fills it from its ledgers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FedNodeView {
    /// Display label (`root`, `region3`, `leaf17`).
    pub label: String,
    /// Whether the node is currently up.
    pub alive: bool,
    /// Whether the node's subtree finalized (or is running) with
    /// missing mass.
    pub degraded: bool,
    /// Frames spooled/parked but not yet settled at this node.
    pub lag_frames: u64,
    /// Latest input epoch this node's data covers.
    pub last_epoch: u64,
    /// Profile mass delivered to the root from this subtree (for the
    /// root node itself: total mass applied).
    pub mass: u64,
    /// Crash recoveries this node has performed.
    pub recoveries: u64,
    /// Child subtrees, in topology order.
    pub children: Vec<FedNodeView>,
}

/// A point-in-time view of the whole federation tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FedTopologyView {
    /// The global root and, beneath it, regionals and leaves.
    pub root: FedNodeView,
    /// Delivered/truth coverage in parts-per-million.
    pub coverage_ppm: u64,
    /// Latest input epoch the root has applied.
    pub epoch: u64,
}

fn render_fed_node(out: &mut String, n: &FedNodeView, prefix: &str, last: bool, is_root: bool) {
    let mut line = String::new();
    if is_root {
        let _ = write!(line, "{}", n.label);
    } else {
        let _ = write!(
            line,
            "{prefix}{} {}",
            if last { "`-" } else { "|-" },
            n.label
        );
    }
    let _ = write!(
        line,
        "  mass {}  epoch {}  lag {}",
        n.mass, n.last_epoch, n.lag_frames
    );
    if n.recoveries > 0 {
        let _ = write!(line, "  recoveries {}", n.recoveries);
    }
    if !n.children.is_empty() {
        let _ = write!(line, "  fan-in {}", n.children.len());
    }
    if !n.alive {
        line.push_str("  DOWN");
    }
    if n.degraded {
        line.push_str("  DEGRADED");
    }
    out.push_str(&line);
    out.push('\n');
    let child_prefix = if is_root {
        String::new()
    } else {
        format!("{prefix}{}", if last { "   " } else { "|  " })
    };
    for (i, c) in n.children.iter().enumerate() {
        render_fed_node(out, c, &child_prefix, i + 1 == n.children.len(), false);
    }
}

/// Renders the federation topology as a deterministic ASCII tree (the
/// golden-file surface for the federation tier).
pub fn render_fed_topology(v: &FedTopologyView) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== federation @ epoch {} · coverage {}.{:04}% ==",
        v.epoch,
        v.coverage_ppm / 10_000,
        v.coverage_ppm % 10_000
    );
    render_fed_node(&mut out, &v.root, "", true, true);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fed_topology_renders_tree_and_degradation() {
        let v = FedTopologyView {
            root: FedNodeView {
                label: "root".into(),
                alive: true,
                mass: 1000,
                last_epoch: 42,
                children: vec![
                    FedNodeView {
                        label: "region0".into(),
                        alive: true,
                        mass: 600,
                        last_epoch: 42,
                        children: vec![FedNodeView {
                            label: "leaf0".into(),
                            alive: true,
                            mass: 600,
                            last_epoch: 42,
                            recoveries: 1,
                            ..FedNodeView::default()
                        }],
                        ..FedNodeView::default()
                    },
                    FedNodeView {
                        label: "region1".into(),
                        alive: true,
                        mass: 400,
                        last_epoch: 40,
                        children: vec![FedNodeView {
                            label: "leaf1".into(),
                            alive: false,
                            degraded: true,
                            mass: 400,
                            last_epoch: 40,
                            ..FedNodeView::default()
                        }],
                        ..FedNodeView::default()
                    },
                ],
                ..FedNodeView::default()
            },
            coverage_ppm: 909_091,
            epoch: 42,
        };
        let txt = render_fed_topology(&v);
        assert!(txt.starts_with("== federation @ epoch 42 · coverage 90.9091% =="));
        assert!(txt.contains("root  mass 1000  epoch 42  lag 0  fan-in 2"));
        assert!(txt.contains("|- region0"));
        assert!(txt.contains("`- region1"));
        assert!(txt.contains("|  `- leaf0  mass 600  epoch 42  lag 0  recoveries 1"));
        assert!(txt.contains("   `- leaf1  mass 400  epoch 40  lag 0  DOWN  DEGRADED"));
    }

    #[test]
    fn renders_every_section() {
        let s = LiveSnapshot {
            epoch: 3,
            now: 9000,
            origins: 7,
            pending_walks: 1,
            pending_edges: 0,
            lag: LagStats {
                batches: 4,
                events: 120,
                ..LagStats::default()
            },
            top_paths: vec![TopPath {
                origin: "squid:client_http_request".into(),
                cycles: 500,
                samples: 5,
                path: vec!["client_http_request".into(), "do_query".into()],
            }],
            tiers: vec![TierSlice {
                origin: "squid:client_http_request".into(),
                stages: vec![("squid".into(), 100), ("mysql".into(), 400)],
            }],
            hotspots: vec![Hotspot {
                waiter: "squid:a".into(),
                holder: "squid:b".into(),
                count: 2,
                total_wait: 90,
            }],
            degraded: vec![],
        };
        let text = render_live_snapshot(&s);
        assert!(text.contains("epoch 3"));
        assert!(text.contains("origins: 7\n"));
        assert!(text.contains("1. squid:client_http_request  cycles 500 samples 5"));
        assert!(text.contains("client_http_request -> do_query"));
        assert!(text.contains("squid 100 | mysql 400"));
        assert!(text.contains("squid:a  <-  squid:b  waits 2 total 90"));
        assert!(!text.contains("degraded"), "clean snapshot has no marker");
    }

    #[test]
    fn degraded_markers_render_one_per_line() {
        let s = LiveSnapshot {
            degraded: vec!["stage 1 (db): 2 corrupt quarantined".into()],
            ..LiveSnapshot::default()
        };
        assert!(render_live_snapshot(&s).contains("degraded: stage 1 (db): 2 corrupt quarantined"));
    }

    #[test]
    fn diff_tracks_growth_and_new_degradation() {
        let top = |origin: &str, cycles: u64| TopPath {
            origin: origin.into(),
            cycles,
            samples: 1,
            path: vec![],
        };
        let before = LiveSnapshot {
            epoch: 4,
            lag: LagStats {
                batches: 4,
                events: 40,
                ..LagStats::default()
            },
            top_paths: vec![top("a:x", 100), top("a:y", 50)],
            ..LiveSnapshot::default()
        };
        let after = LiveSnapshot {
            epoch: 9,
            lag: LagStats {
                batches: 9,
                events: 140,
                ..LagStats::default()
            },
            top_paths: vec![top("a:x", 700), top("a:z", 90)],
            hotspots: vec![Hotspot {
                waiter: "a:x".into(),
                holder: "a:z".into(),
                count: 3,
                total_wait: 77,
            }],
            degraded: vec!["stage 0 stalled".into()],
            ..LiveSnapshot::default()
        };
        let d = diff_snapshots(&before, &after);
        assert_eq!((d.from_epoch, d.to_epoch), (4, 9));
        assert_eq!((d.d_batches, d.d_events), (5, 100));
        // Ordered by descending growth; the dropped-out origin "a:y"
        // still appears (with after = 0).
        assert_eq!(d.origins[0], ("a:x".into(), 100, 700));
        assert_eq!(d.origins[1], ("a:z".into(), 0, 90));
        assert!(d
            .origins
            .iter()
            .any(|(o, b, a)| o == "a:y" && *b == 50 && *a == 0));
        assert_eq!(d.hotspots, vec![("a:x".into(), "a:z".into(), 0, 77)]);
        assert_eq!(d.degraded_added, vec!["stage 0 stalled".to_owned()]);
        let text = render_live_diff(&d);
        assert!(text.contains("epoch 4 -> 9"));
        assert!(text.contains("a:x: 100 -> 700 (+600)"));
        assert!(text.contains("newly degraded: stage 0 stalled"));
    }

    #[test]
    fn incident_renders_mid_violation_and_post_capture() {
        let mut card = IncidentCard {
            dimension: "tail:db".into(),
            detected_epoch: 37,
            observed: 5678,
            budget: 1234,
            quantile_ppm: 990_000,
            window: (30, 37),
            onset_epoch: Some(30),
            degraded: vec!["stage 2 (db): 1 resync".into()],
            ..IncidentCard::default()
        };
        let mid = render_incident(&card);
        assert!(mid.starts_with("== incident: tail:db @ epoch 37 =="));
        assert!(mid.contains("budget: p99.00 per-epoch value 1234 exceeded: observed 5678"));
        assert!(mid.contains("window: epochs 30..=37"));
        assert!(mid.contains("onset: epoch 30 (detection latency 7 epochs)"));
        assert!(mid.contains("degraded: stage 2 (db): 1 resync"));
        assert!(mid.contains("capture: in progress"));
        assert!(!mid.contains("replay:"));

        card.shrink = Some(ShrinkSummary {
            faults_before: 3,
            faults_after: 1,
            clients_before: 48,
            clients_after: 6,
        });
        card.replay = Some(ReplaySummary {
            fingerprint: 0xdead_beef,
            bit_identical: true,
            retripped: true,
        });
        let done = render_incident(&card);
        assert!(done.contains("shrink: faults 3 -> 1, clients 48 -> 6"));
        assert!(done.contains("replay: fingerprint 00000000deadbeef bit-identical, re-tripped"));
        assert!(!done.contains("capture: in progress"));
    }
}
