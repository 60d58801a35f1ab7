//! Sentinel wiring for the TPC-W stack: budget calibration, SLO-watched
//! runs, and the anomaly-capture pipeline.
//!
//! The flow mirrors what an always-on deployment does:
//!
//! 1. [`calibrate_budget`] runs one known-clean scenario and sets every
//!    tail budget at a configurable margin above the observed baseline
//!    quantile — the zero-false-repro property then follows from the
//!    margin, and is *checked*, not assumed, by the capture oracle.
//! 2. [`run_with_sentinel`] executes a repro with the collector's
//!    [`SentinelSink`] attached: live profile, SLO evaluation over
//!    retained epochs, time-travel snapshots.
//! 3. [`capture_incident`] turns a trip into a minimal, verified
//!    artifact: the scenario is window-scoped (its duration truncated
//!    to just past the violation — prefix determinism makes the
//!    truncated run a bit-exact prefix of the original), greedily
//!    shrunk while it still re-trips the same dimension, replayed
//!    twice to prove bit-identical fingerprints, and pushed through
//!    [`check_capture`] so a capture that fails verification surfaces
//!    as an explicit `false-repro` violation instead of a bogus bundle.

use crate::chaos::{Assembly, SHRINKABLE_KNOBS};
use whodunit_collector::sentinel::{QUANTILE_PPM, WINDOW_EPOCHS};
use whodunit_collector::{CollectorConfig, CollectorOutput, SentinelSink, SloBudget, SloViolation};
use whodunit_core::oracle::{check_capture, CaptureEvidence, Violation};
use whodunit_core::repro::{ChaosRepro, ReproWindow};
use whodunit_report::live::{IncidentCard, LiveSnapshot, ReplaySummary, ShrinkSummary};
use whodunit_sim::explore;

/// Snapshot cadence for the time-travel ring: frequent enough that a
/// "before" state exists for any post-warmup trip, cheap enough to
/// stay inside the capture-overhead budget.
const SNAPSHOT_EVERY: u64 = 4;

/// One sentinel-watched execution of a repro.
#[derive(Debug)]
pub struct SentinelRun {
    /// The trip, if the budget was violated.
    pub violation: Option<SloViolation>,
    /// Finalized collector output (report + stats).
    pub output: CollectorOutput,
    /// Newest retained snapshot from before the trip.
    pub before: Option<LiveSnapshot>,
    /// Snapshot taken at the trip epoch.
    pub after: Option<LiveSnapshot>,
    /// Scenario fingerprint ([`Assembly::run_streaming`]'s, so
    /// streaming-path fingerprints are comparable with batch ones):
    /// equal fingerprints mean bit-identical runs.
    pub fingerprint: u64,
    /// Epochs the sentinel observed.
    pub epochs: u64,
}

/// Executes a repro with the sentinel attached.
pub fn run_with_sentinel(repro: &ChaosRepro, budget: &SloBudget, epoch_len: u64) -> SentinelRun {
    let mut sink = SentinelSink::new(CollectorConfig::default(), budget.clone())
        .with_snapshot_every(SNAPSHOT_EVERY);
    let fingerprint = Assembly::Tpcw
        .run_streaming(repro, epoch_len, &mut sink)
        .fingerprint;
    let (before, after) = match sink.before_after() {
        Some((b, a)) => (Some(b.clone()), Some(a.clone())),
        None => (None, None),
    };
    let violation = sink.sentinel().tripped().cloned();
    let epochs = sink.sentinel().epochs_seen();
    let (output, _, trip_snapshot) = sink.finish();
    SentinelRun {
        violation,
        output,
        before,
        after: after.or(trip_snapshot),
        fingerprint,
        epochs,
    }
}

/// Calibrates a budget from one known-clean scenario:
///
/// - each stage's **tail budget** is `margin_num / margin_den` times
///   the observed baseline quantile, plus a small absolute slack (1%
///   of an epoch) so near-zero baselines don't produce hair-trigger
///   budgets;
/// - each stage's **starvation floor** is the *inverse* margin of the
///   observed low quantile (p10), so a tier whose throughput collapses
///   — the profile signature of a machine slowdown — trips
///   `starve:<stage>`;
/// - the **crosstalk budget** gets the same treatment as the tails;
/// - any **quarantined frame** at all trips `quarantine`.
///
/// The margin is the knob that trades detection sensitivity against
/// false trips on other clean scenarios of the same workload family.
pub fn calibrate_budget(
    clean: &ChaosRepro,
    epoch_len: u64,
    margin_num: u64,
    margin_den: u64,
) -> SloBudget {
    let mut sink = SentinelSink::new(CollectorConfig::default(), SloBudget::default())
        .with_snapshot_every(SNAPSHOT_EVERY);
    Assembly::Tpcw.run_streaming(clean, epoch_len, &mut sink);
    let s = sink.sentinel();
    let slack = epoch_len / 100;
    let margin_up = |v: u64| v.saturating_mul(margin_num) / margin_den.max(1) + slack;
    let margin_down = |v: u64| v.saturating_mul(margin_den) / margin_num.max(1);
    let stage_cycles = s
        .stages()
        .iter()
        .enumerate()
        .map(|(si, name)| {
            (
                name.clone(),
                margin_up(s.lifetime_quantile(si, QUANTILE_PPM).unwrap_or(0)),
            )
        })
        .collect();
    let stage_floor = s
        .stages()
        .iter()
        .enumerate()
        .map(|(si, name)| {
            (
                name.clone(),
                margin_down(s.lifetime_quantile(si, 100_000).unwrap_or(0)),
            )
        })
        .collect();
    SloBudget {
        stage_cycles,
        stage_floor,
        xt_wait: Some(margin_up(s.lifetime_xt_quantile(QUANTILE_PPM).unwrap_or(0))),
        max_quarantined: Some(0),
    }
}

/// A captured, shrunk, replay-verified incident.
#[derive(Debug)]
pub struct Incident {
    /// The original trip that started the capture.
    pub violation: SloViolation,
    /// The minimal window-scoped repro (duration truncated, faults and
    /// knobs shrunk, [`ReproWindow`] stamped).
    pub repro: ChaosRepro,
    /// The capture evidence fed to the oracle.
    pub evidence: CaptureEvidence,
    /// Oracle verdict on the capture: empty means the repro is real,
    /// bit-identical, and re-trips; anything here is a `false-repro`.
    pub oracle: Vec<Violation>,
    /// Renderable incident report data (differential snapshots
    /// included when the ring held a before-state).
    pub card: IncidentCard,
    /// Scenario re-executions the capture cost (truncation check,
    /// shrinking, and the two verification replays).
    pub capture_runs: u64,
}

/// Runs a repro under the budget and, if the sentinel trips, captures
/// a minimal verified incident. Returns `None` when the run stays
/// inside budget.
pub fn capture_incident(
    repro: &ChaosRepro,
    budget: &SloBudget,
    epoch_len: u64,
) -> Option<Incident> {
    let run = run_with_sentinel(repro, budget, epoch_len);
    let trip = run.violation.clone()?;
    let mut capture_runs = 1u64;

    let trips_same = |cand: &ChaosRepro, runs: &mut u64| -> bool {
        *runs += 1;
        run_with_sentinel(cand, budget, epoch_len)
            .violation
            .is_some_and(|v| v.dimension == trip.dimension)
    };

    // Window-scope: cut the scenario off one epoch past the violation.
    // Prefix determinism (the chunked-vs-unchunked lock) means the
    // truncated run replays the identical prefix, so the trip survives
    // unless it depended on nothing — which the re-check catches.
    let mut scoped = repro.clone();
    let duration = Assembly::Tpcw.knob(&scoped, "duration");
    let cut = (trip.epoch + 1).saturating_mul(epoch_len);
    if cut < duration {
        scoped.set_knob("duration", cut);
        if !trips_same(&scoped, &mut capture_runs) {
            scoped = repro.clone();
        }
    }

    // Greedy shrink: drop fault entries and halve shrinkable knobs
    // while the candidate still trips the same dimension.
    let shrunk = explore::shrink(&scoped, SHRINKABLE_KNOBS, |cand| {
        trips_same(cand, &mut capture_runs)
    });

    // Verification replays: the final candidate runs twice; equal
    // fingerprints prove bit-identical replay, and both runs must
    // re-trip the recorded dimension.
    let a = run_with_sentinel(&shrunk, budget, epoch_len);
    let b = run_with_sentinel(&shrunk, budget, epoch_len);
    capture_runs += 2;
    let retrip = |r: &SentinelRun| {
        r.violation
            .as_ref()
            .is_some_and(|v| v.dimension == trip.dimension)
    };
    let evidence = CaptureEvidence {
        dimension: trip.dimension.clone(),
        clean_scenario: repro.faults.is_empty(),
        original_fingerprint: a.fingerprint,
        replay_fingerprint: b.fingerprint,
        retripped: retrip(&a) && retrip(&b),
    };
    let oracle = check_capture(&evidence);

    let mut repro_out = shrunk;
    repro_out.violation = Some(format!("slo:{}", trip.dimension));
    // Everything a later `chaos --replay` needs to re-judge the trip
    // without the calibrated budget in hand: the tripped dimension's
    // ceiling. Together with `window` below (epoch length, trip epoch)
    // this makes the bundle self-contained; the quantile, window and
    // warmup are the sentinel's constants.
    repro_out.set_knob("slo_budget", trip.budget);
    let first_in_window = |epoch: u64| epoch.saturating_sub(WINDOW_EPOCHS - 1);
    if let Some(v) = &a.violation {
        repro_out.window = Some(ReproWindow {
            epoch_len,
            start: first_in_window(v.epoch),
            end: v.epoch,
            dimension: v.dimension.clone(),
        });
    }

    let card = IncidentCard {
        dimension: trip.dimension.clone(),
        detected_epoch: trip.epoch,
        observed: trip.observed,
        budget: trip.budget,
        quantile_ppm: QUANTILE_PPM,
        window: (first_in_window(trip.epoch), trip.epoch),
        onset_epoch: None,
        degraded: run.output.stats.degraded.clone(),
        shrink: Some(ShrinkSummary {
            faults_before: repro.faults.len() as u64,
            faults_after: repro_out.faults.len() as u64,
            clients_before: repro.knob("clients").unwrap_or(0),
            clients_after: repro_out.knob("clients").unwrap_or(0),
        }),
        replay: Some(ReplaySummary {
            fingerprint: a.fingerprint,
            bit_identical: a.fingerprint == b.fingerprint,
            retripped: evidence.retripped,
        }),
        before: run.before,
        after: run.after,
    };

    Some(Incident {
        violation: trip,
        repro: repro_out,
        evidence,
        oracle,
        card,
        capture_runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use whodunit_core::cost::CPU_HZ;
    use whodunit_core::repro::FaultEntry;

    fn clean_repro(seed: u64) -> ChaosRepro {
        let mut r = ChaosRepro {
            seed,
            policy: "fifo".into(),
            workload: Assembly::Tpcw.workload(),
            faults: Vec::new(),
            violation: None,
            window: None,
        };
        r.set_knob("clients", 12);
        r.set_knob("duration", 25 * CPU_HZ);
        r.set_knob("warmup", 5 * CPU_HZ);
        r
    }

    #[test]
    fn calibrated_budget_does_not_trip_on_clean_runs() {
        let budget = calibrate_budget(&clean_repro(1), CPU_HZ, 3, 2);
        assert!(budget.stage_cycles.iter().all(|&(_, b)| b > 0));
        for seed in [1, 2] {
            let run = run_with_sentinel(&clean_repro(seed), &budget, CPU_HZ);
            assert!(run.violation.is_none(), "seed {seed}: {:?}", run.violation);
            assert!(run.epochs > 10, "sentinel observed the stream");
        }
    }

    #[test]
    fn planted_slowdown_is_captured_shrunk_and_verified() {
        let budget = calibrate_budget(&clean_repro(1), CPU_HZ, 3, 2);
        let mut storm = clean_repro(1);
        storm.faults = vec![FaultEntry::Slowdown {
            machine: "mysql".into(),
            from: 10 * CPU_HZ,
            until: 25 * CPU_HZ,
            factor: 8,
        }];
        let inc = capture_incident(&storm, &budget, CPU_HZ).expect("slowdown must trip");
        assert!(inc.violation.epoch >= 10, "tripped after onset");
        assert!(inc.oracle.is_empty(), "capture oracle: {:?}", inc.oracle);
        let w = inc.repro.window.as_ref().expect("window stamped");
        assert_eq!(w.dimension, inc.violation.dimension);
        assert!(w.end >= w.start);
        let s = inc.card.shrink.as_ref().unwrap();
        assert!(s.clients_after <= s.clients_before);
        let r = inc.card.replay.as_ref().unwrap();
        assert!(r.bit_identical && r.retripped);
        // The scoped repro is self-contained: parse it back and re-trip.
        let json = whodunit_core::repro::repro_to_json(&inc.repro);
        let parsed = whodunit_core::repro::repro_from_json(&json).unwrap();
        let replay = run_with_sentinel(&parsed, &budget, CPU_HZ);
        assert_eq!(
            replay.violation.map(|v| v.dimension),
            Some(inc.violation.dimension.clone())
        );
    }
}
