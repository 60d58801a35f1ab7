//! The per-layer table of the traced run.
//!
//! Three sources, all outside the product: the spans recorded around
//! its public calls inside traced passes (self time per layer, which
//! sums to the pass), *probes* that time a public function on its own
//! over the pass's input (what the layer costs when nothing else
//! runs), and the counters the product returns. Layers are named
//! after the modules: `engine` (sim + vm + apps + profiler), `delta`,
//! `wire`, `collector`, `federation`, `summary`, `pipeline`, `report`;
//! `proc` is the process and the harness itself.

use whodunit_apps::tpcw::{run_tpcw, run_tpcw_streaming};
use whodunit_core::cost::CPU_HZ;
use whodunit_core::delta::{DeltaSink, EpochBatch, StageAccumulator, StageDelta, StreamHeader};
use whodunit_core::pipeline::{analyze, replicate_fleet};
use whodunit_core::summary::{empty_delta, merge_stage_delta};
use whodunit_core::wire;
use whodunit_report::live::{render_fed_topology, render_live_snapshot};
use whodunit_report::render::render_pipeline;

use crate::harness::{median, quantile_of, Metrics, ProcSample, Summary};
use crate::trace::{Recorder, SelfCost, SelfCosts};
use crate::workloads::{batch_config, mass_loss, PassOut, Workload};

/// Layers whose spans occur inside a pass.
pub const PASS_LAYERS: [&str; 4] = ["engine", "wire", "collector", "federation"];

/// Phases of `pipeline::analyze`, as its `PhaseTiming` names them.
pub const PIPELINE_PHASES: [&str; 8] = [
    "validate",
    "index",
    "stitch",
    "annotate",
    "profiles",
    "crosstalk-map",
    "crosstalk-reduce",
    "serialize",
];

/// A sink that drops every batch: what the engine plus `diff_dump`
/// cost with nothing downstream.
#[derive(Default)]
struct NullSink {
    epochs: u64,
    events: u64,
}

impl DeltaSink for NullSink {
    fn on_start(&mut self, _header: &StreamHeader) {}
    fn on_batch(&mut self, batch: EpochBatch) {
        self.epochs += 1;
        self.events += batch.events();
    }
}

/// Counts and phase times the probes return beside their spans.
#[derive(Clone, Debug, Default)]
pub struct ProbeCounts {
    /// Epochs the streamed engine run emitted.
    pub engine_epochs: u64,
    /// Change events `diff_dump` produced over that run.
    pub delta_events: u64,
    /// Frames in the pass's wire input.
    pub wire_frames: u64,
    /// Their bytes.
    pub wire_bytes: u64,
    /// Events `apply_batch` applied from them.
    pub wire_events: u64,
    /// Frames that failed `decode_batch` or `apply_batch`.
    pub wire_errors: u64,
    /// Per repetition, `analyze`'s own phase times in ms, in
    /// [`PIPELINE_PHASES`] order.
    pub phase_ms: Vec<[f64; 8]>,
}

/// Runs every layer probe once, each under its own root span of `rec`
/// (`engine.run`, `delta.run_streamed`, `wire.encode`, `wire.decode`,
/// `wire.apply`, `summary.merge`, `pipeline.analyze`,
/// `report.render`), then ends the recorder's pass, so one repetition
/// is one "pass" of the probe recorder.
pub fn probe_layers(
    w: &dyn Workload,
    final_out: &PassOut,
    wire_input: &(StreamHeader, Vec<Vec<u8>>),
    rec: &mut Recorder,
    counts: &mut ProbeCounts,
) {
    let fx = w.fixture();
    let cfg = &fx.recorded.cfg;

    // Engine alone, then engine + per-epoch diff into a null sink.
    std::hint::black_box(rec.span("engine.run", || run_tpcw(cfg.clone())));
    let mut null = NullSink::default();
    std::hint::black_box(rec.span("delta.run_streamed", || {
        run_tpcw_streaming(cfg.clone(), CPU_HZ, &mut null)
    }));
    counts.engine_epochs = null.epochs;
    counts.delta_events = null.events;

    // Wire. Decode alone (its output feeds the encode probe), encode
    // alone, then the zero-struct apply into bare accumulators — the
    // path `Collector::enqueue_wire` does not take.
    let (header, frames) = wire_input;
    counts.wire_frames = frames.len() as u64;
    counts.wire_bytes = frames.iter().map(|f| f.len() as u64).sum();
    counts.wire_errors = 0;
    counts.wire_events = 0;
    for f in frames {
        match rec.span("wire.decode", || wire::decode_batch(f)) {
            Ok((batch, _)) => {
                std::hint::black_box(rec.span("wire.encode", || wire::encode_batch(&batch)));
            }
            Err(_) => counts.wire_errors += 1,
        }
    }
    let mut accs: Vec<StageAccumulator> = header.stages.iter().map(StageAccumulator::new).collect();
    rec.span("wire.apply", || {
        for f in frames {
            match wire::apply_batch(&mut accs, f) {
                Ok(info) => counts.wire_events += info.events,
                Err(_) => counts.wire_errors += 1,
            }
        }
    });
    drop(std::hint::black_box(accs));

    // Summary algebra alone: each leaf merges every stage's deltas
    // over one flush interval, as a leaf does between flushes.
    if let Some((streams, flush_every)) = w.leaf_streams() {
        let mut merged: Vec<Option<StageDelta>> = vec![None; header.stages.len()];
        rec.span("summary.merge", || {
            for window in streams
                .iter()
                .flat_map(|s| s.chunks(flush_every.max(1) as usize))
            {
                for d in window.iter().flat_map(|b| &b.deltas) {
                    let acc = merged[d.stage].get_or_insert_with(|| empty_delta(d.stage));
                    merge_stage_delta(acc, d).expect("a clean stream merges");
                }
                // The flush: hand the merged deltas on and start over.
                for d in window.iter().flat_map(|b| &b.deltas) {
                    drop(std::hint::black_box(merged[d.stage].take()));
                }
            }
        });
    }

    // Batch analysis of the same fleet, and rendering the final outputs.
    let fleet = replicate_fleet(&fx.recorded.dumps, fx.replicas);
    let report = rec.span("pipeline.analyze", || analyze(fleet, batch_config()));
    let mut phases = [0.0; 8];
    for t in &report.timings {
        if let Some(i) = PIPELINE_PHASES.iter().position(|&p| p == t.phase) {
            phases[i] += t.wall_ns as f64 / 1e6;
        }
    }
    counts.phase_ms.push(phases);
    drop(report);

    let snapshot = final_out
        .offered
        .last_snapshot
        .clone()
        .or_else(|| w.final_snapshot());
    rec.span("report.render", || {
        std::hint::black_box(render_pipeline(&final_out.collector.report));
        if let Some(s) = &snapshot {
            std::hint::black_box(render_live_snapshot(s));
        }
        if let Some(f) = &final_out.fed {
            std::hint::black_box(render_fed_topology(&f.topology));
        }
    });
    rec.end_pass();
}

/// What the traced run gathered, handed to [`layer_metrics`].
pub struct TracedRun<'a> {
    /// The workload.
    pub workload: &'a dyn Workload,
    /// Recorder of the traced passes.
    pub passes: &'a Recorder,
    /// Recorder of the probe repetitions.
    pub probes: &'a Recorder,
    /// What the probes counted.
    pub counts: &'a ProbeCounts,
    /// Output of the last pass (counters are identical on every pass).
    pub last: &'a PassOut,
    /// Every timed pass in order: whether it was traced, and its wall
    /// seconds.
    pub timed: &'a [(bool, f64)],
    /// Median over the passes of how slow the host ran (1 = reference).
    pub host_factor: f64,
    /// Offer → drained latencies pooled over the traced passes, ns.
    pub frame_latency_ns: &'a [f64],
    /// `/proc/self` at the end of the run.
    pub proc_end: ProcSample,
}

/// Median over the passes of one span name's self time, ms.
fn span_ms(costs: &SelfCosts, name: &str) -> f64 {
    median(&costs.ms(name))
}

/// Median over the passes of `f` of a per-pass cost.
fn med_of(per_pass: &[SelfCost], f: impl Fn(&SelfCost) -> f64) -> f64 {
    median(&per_pass.iter().map(f).collect::<Vec<_>>())
}

/// Median over the passes of one layer's self time, ms.
fn layer_ms(costs: &SelfCosts, layer: &str) -> f64 {
    med_of(&costs.layer(layer), |c| c.ns as f64 / 1e6)
}

/// Pushes `<prefix>_p50_us` and `<prefix>_p99_us` of durations given
/// in ns, and a note stating the sample count.
fn tail_us(m: &mut Metrics, notes: &mut Vec<String>, prefix: &str, ns: &[f64], what: &str) {
    let us: Vec<f64> = ns.iter().map(|v| v / 1e3).collect();
    m.push(format!("{prefix}_p50_us"), quantile_of(&us, 0.5), "us");
    m.push(format!("{prefix}_p99_us"), quantile_of(&us, 0.99), "us");
    notes.push(format!("{prefix}_p50_us/_p99_us: {what}, n={}", us.len()));
}

/// Wall seconds of the traced (`true`) or untraced (`false`) passes.
pub fn pass_seconds(timed: &[(bool, f64)], traced: bool) -> Vec<f64> {
    timed
        .iter()
        .filter(|(t, _)| *t == traced)
        .map(|&(_, s)| s)
        .collect()
}

/// Tracing overhead in percent: each traced pass against the untraced
/// passes right before and after it, median over the traced passes.
/// Comparing neighbours, not the two groups' medians, keeps a slow
/// phase of the host out of the estimate.
pub fn trace_overhead_pct(timed: &[(bool, f64)]) -> f64 {
    let untraced_at = |i: Option<usize>| {
        i.and_then(|i| timed.get(i))
            .filter(|(traced, _)| !traced)
            .map(|&(_, s)| s)
    };
    let ratios: Vec<f64> = timed
        .iter()
        .enumerate()
        .filter(|(_, (traced, _))| *traced)
        .filter_map(|(i, &(_, s))| {
            let around: Vec<f64> = [untraced_at(i.checked_sub(1)), untraced_at(Some(i + 1))]
                .into_iter()
                .flatten()
                .collect();
            (!around.is_empty()).then(|| s / (around.iter().sum::<f64>() / around.len() as f64))
        })
        .collect();
    (median(&ratios) - 1.0) * 100.0
}

/// Every per-layer metric, in `BENCHMARK.json` order. A layer that
/// does not run on this workload reads 0. Returns the metrics and
/// notes (sample counts, bases of ratios) to print beside them.
pub fn layer_metrics(run: &TracedRun<'_>) -> (Metrics, Vec<String>) {
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let pass = run.passes.self_costs();
    let probe = run.probes.self_costs();
    let fx = run.workload.fixture();
    let stats = &run.last.collector.stats;
    let untraced = Summary::of(&pass_seconds(run.timed, false));
    let traced_s = pass_seconds(run.timed, true);
    let c = run.counts;

    // engine, delta: the simulated stack and the per-epoch diff.
    let engine_ms = span_ms(&probe, "engine.run");
    let sim_cycles = fx.recorded.cfg.duration as f64;
    m.ms("engine.self_ms", layer_ms(&pass, "engine"));
    m.ms("engine.run_ms", engine_ms);
    m.count("engine.epochs", c.engine_epochs);
    m.push(
        "engine.sim_cycles_per_host_s",
        sim_cycles / (engine_ms / 1e3),
        "1/s",
    );
    m.count("engine.requests", fx.recorded.requests);
    m.ms(
        "delta.diff_ms",
        span_ms(&probe, "delta.run_streamed") - engine_ms,
    );
    m.count("delta.events", c.delta_events);

    // wire: the codec alone on the pass's own frames.
    let bytes_per_event = c.wire_bytes as f64 / (c.wire_events as f64).max(1.0);
    m.ms("wire.self_ms", layer_ms(&pass, "wire"));
    m.ms("wire.encode_ms", span_ms(&probe, "wire.encode"));
    m.ms("wire.decode_ms", span_ms(&probe, "wire.decode"));
    m.ms("wire.apply_ms", span_ms(&probe, "wire.apply"));
    m.push("wire.bytes_per_event", bytes_per_event, "B");
    m.count("wire.frames", c.wire_frames);
    m.count("wire.errors", c.wire_errors + stats.wire_errors);

    // collector: the ingest side, then the read and eviction side.
    m.ms("collector.self_ms", layer_ms(&pass, "collector"));
    m.ms("collector.enqueue_ms", span_ms(&pass, "collector.enqueue"));
    m.ms("collector.drain_ms", span_ms(&pass, "collector.drain"));
    m.ms(
        "collector.finalize_ms",
        span_ms(&pass, "collector.finalize"),
    );
    tail_us(
        &mut m,
        &mut notes,
        "collector.frame",
        run.frame_latency_ns,
        "offer -> drained, frames",
    );
    m.count("collector.batches", stats.batches);
    m.count("collector.events", stats.events);
    m.count("collector.peak_resident", stats.peak_resident);
    m.count(
        "collector.pending_at_flush",
        stats.pending_walks_at_flush + stats.pending_edges_at_flush,
    );
    m.count("collector.used_fallback", u64::from(stats.used_fallback));
    m.ms(
        "collector.snapshot_ms",
        span_ms(&pass, "collector.snapshot"),
    );
    let snapshots_ns = run.passes.durations_ns("collector.snapshot");
    tail_us(
        &mut m,
        &mut notes,
        "collector.snapshot",
        &snapshots_ns,
        "calls",
    );
    m.count("collector.snapshots", run.last.offered.snapshots);
    m.count("collector.evictions", stats.evictions);
    m.count("collector.revivals", stats.revivals);
    m.count("collector.throttled", stats.throttled);
    m.count("collector.peak_queued", stats.peak_queued);

    // federation, and the summary algebra under it.
    let fed = run.last.fed.as_ref();
    let fs = fed.map(|f| f.stats.clone()).unwrap_or_default();
    let analyze_ms = span_ms(&probe, "pipeline.analyze");
    let fed_only = |v: f64| if fed.is_some() { v } else { 0.0 };
    m.ms("federation.self_ms", layer_ms(&pass, "federation"));
    m.ms(
        "federation.feed_ms",
        span_ms(&pass, "federation.feed_round"),
    );
    m.ms("federation.tick_ms", span_ms(&pass, "federation.tick"));
    let ticks_ns = run.passes.durations_ns("federation.tick");
    tail_us(&mut m, &mut notes, "federation.tick", &ticks_ns, "calls");
    m.ms(
        "federation.finalize_ms",
        span_ms(&pass, "federation.finalize"),
    );
    m.count("federation.checkpoints", fs.checkpoints);
    m.count("federation.frames_sent", fs.frames_sent);
    m.count("federation.retransmits", fs.retransmits);
    m.count("federation.frames_lost", fs.frames_lost);
    m.count("federation.acks_lost", fs.acks_lost);
    m.count("federation.dup_frames", fs.dup_frames);
    m.count("federation.spool_stalls", fs.spool_stalls);
    m.count("federation.leaf_events_in", fs.leaf_events_in);
    m.count("federation.root_events_applied", fs.root_events_applied);
    m.push(
        "federation.compaction_x",
        fed_only(fs.leaf_events_in as f64 / (fs.root_events_applied as f64).max(1.0)),
        "x",
    );
    m.count("federation.peak_resident_leaf", fs.peak_resident_leaf);
    m.count(
        "federation.peak_resident_regional",
        fs.peak_resident_regional,
    );
    m.count("federation.decode_errors", fs.wire_decode_errors);
    m.push(
        "federation.coverage_ppm",
        fed.map_or(0.0, |f| f.coverage_ppm as f64),
        "ppm",
    );
    m.count(
        "federation.mass_loss",
        fed.map_or(0, |f| mass_loss(&f.evidence)),
    );
    m.push(
        "federation.vs_batch_x",
        fed_only(untraced.median * 1e3 / analyze_ms),
        "x",
    );
    notes.push(format!(
        "federation.vs_batch_x: untraced wall-clock pass {:.4} s over pipeline.analyze_ms {analyze_ms:.2} ms",
        untraced.median
    ));
    m.ms("summary.merge_ms", span_ms(&probe, "summary.merge"));

    // pipeline and report: the batch answer and its rendering.
    m.ms("pipeline.analyze_ms", analyze_ms);
    m.count(
        "pipeline.origins",
        fx.reference.report.profiles.len() as u64,
    );
    for (i, phase) in PIPELINE_PHASES.iter().enumerate() {
        let per_rep: Vec<f64> = c.phase_ms.iter().map(|p| p[i]).collect();
        m.ms(format!("pipeline.phase.{phase}_ms"), median(&per_rep));
    }
    m.ms("report.render_ms", span_ms(&probe, "report.render"));

    // Allocations, attributed to the innermost open span: per pass for
    // the layers a pass calls, per probe call for the two it does not.
    let analyze = probe
        .by_name
        .get("pipeline.analyze")
        .cloned()
        .unwrap_or_default();
    let render = probe
        .by_name
        .get("report.render")
        .cloned()
        .unwrap_or_default();
    let in_pass = PASS_LAYERS.iter().map(|&l| (l, pass.layer(l)));
    for (layer, costs) in in_pass.chain([("pipeline", analyze), ("report", render)]) {
        m.push(
            format!("{layer}.allocs"),
            med_of(&costs, |c| c.allocs as f64),
            "count",
        );
        m.push(
            format!("{layer}.alloc_mb"),
            med_of(&costs, |c| c.alloc_bytes as f64 / 1e6),
            "MB",
        );
    }

    // proc: host noise and the harness's own cost. Never gated.
    let traced_median = median(&traced_s);
    let layered_ms: f64 = PASS_LAYERS.iter().map(|l| layer_ms(&pass, l)).sum();
    m.count("proc.passes", untraced.n as u64);
    m.push("proc.pass_min_s", untraced.min, "s");
    m.push("proc.pass_q1_s", untraced.q1, "s");
    m.push("proc.pass_q3_s", untraced.q3, "s");
    m.push("proc.pass_max_s", untraced.max, "s");
    m.count("proc.traced_passes", traced_s.len() as u64);
    m.push("proc.traced_pass_s", traced_median, "s");
    m.ms("proc.harness_self_ms", span_ms(&pass, "pass"));
    m.push(
        "proc.layer_coverage_pct",
        layered_ms / (traced_median * 1e3) * 100.0,
        "%",
    );
    m.push(
        "proc.trace_overhead_pct",
        trace_overhead_pct(run.timed),
        "%",
    );
    m.push("proc.host_factor", run.host_factor, "x");
    m.push("proc.cpu_s", run.proc_end.cpu_s, "s");
    m.count("proc.invol_ctx_switches", run.proc_end.invol_ctx_switches);
    notes.push(format!(
        "proc.layer_coverage_pct: engine+wire+collector+federation self time over the traced \
         pass; every span's self time sums to its pass within {:.4} %",
        pass.worst_sum_gap() * 100.0
    ));
    (m, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_compares_neighbours_not_groups() {
        // A host twice as slow in the second half: group medians would
        // read the phase as overhead, neighbours do not.
        let timed = [
            (false, 1.0),
            (false, 1.0),
            (false, 1.0),
            (true, 1.02),
            (false, 1.0),
            (false, 2.0),
            (false, 2.0),
            (true, 2.04),
            (false, 2.0),
        ];
        assert!((trace_overhead_pct(&timed) - 2.0).abs() < 1e-9);
        assert_eq!(pass_seconds(&timed, true), [1.02, 2.04]);
        assert_eq!(pass_seconds(&timed, false).len(), 7);
        // A traced pass with one neighbour still counts.
        assert!((trace_overhead_pct(&[(false, 1.0), (true, 1.1)]) - 10.0).abs() < 1e-9);
    }
}
