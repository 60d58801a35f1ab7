//! Chaos harness: materializing sampled scenarios onto the TPC-W stack,
//! and the one verdict every assembly's scenarios get.
//!
//! This module is the bridge between the pure-data chaos layer
//! ([`whodunit_core::repro`], [`whodunit_sim::explore`]) and the
//! concrete 3-tier assembly ([`crate::tpcw`]):
//!
//! - [`tpcw_space`] declares what a scenario may touch — the two
//!   faultable channels (`"db"`, `"front"`), the crashable `"mysql"`
//!   process, the slowable `"mysql"` machine;
//! - [`default_workload`] names the workload knobs a repro carries;
//! - [`config_of`] resolves a repro into a [`TpcwConfig`], its faults
//!   through [`ScenarioFaults::from_repro`] with `"db"` as the
//!   backbone role;
//! - [`run_scenario`] executes it and hands the run to `judge`.
//!
//! `judge` is shared by every assembly (the zoo's
//! `run_zoo_scenario` and the sentinel use it too): it assembles the
//! oracle [`Evidence`], checks it, and fingerprints the run's complete
//! observable state — two runs of the same repro must produce equal
//! fingerprints, which is what makes a repro file a *repro* rather
//! than a suggestion.

use crate::tpcw::{run_tpcw, TpcwConfig};
use crate::STEP_BUDGET;
use whodunit_core::cost::CPU_HZ;
use whodunit_core::dumpjson;
use whodunit_core::hash::Fnv64;
use whodunit_core::oracle::{check_all, Evidence, ProgressState, Violation};
use whodunit_core::repro::{ChaosRepro, FaultEntry};
use whodunit_core::stitch::StageDump;
use whodunit_sim::explore::{ChaosSpace, ScenarioFaults};
use whodunit_sim::RunOutcome;

/// Virtual horizon of a chaos run with the default workload.
pub const CHAOS_HORIZON: u64 = 60 * CPU_HZ;

/// The sampling space of the TPC-W assembly.
pub fn tpcw_space() -> ChaosSpace {
    ChaosSpace {
        channels: vec!["db".into(), "front".into()],
        crashable: vec!["mysql".into()],
        slowable: vec!["mysql".into()],
        horizon: CHAOS_HORIZON,
        // Up to 15% per fault class: stormy, but the site still serves.
        max_fault_ppm: 150_000,
        // Up to 20 ms of extra delivery delay.
        max_delay: CPU_HZ / 50,
    }
}

/// The workload knobs a TPC-W chaos repro carries. Times are cycles so
/// the file stays integer-exact; `livelock_pair` is 0/1.
pub fn default_workload() -> Vec<(String, u64)> {
    vec![
        // Enough concurrency for table-lock contention at MySQL —
        // contended unlocks are what puts ≥ 2 threads in the ready
        // queue at one instant, which is where the schedule policy
        // actually picks.
        ("clients".into(), 48),
        ("duration".into(), CHAOS_HORIZON),
        ("warmup".into(), 15 * CPU_HZ),
        ("db_timeout".into(), CPU_HZ / 2),
        ("images_per_page".into(), 2),
        ("search_terms".into(), 500),
        ("step_budget".into(), STEP_BUDGET),
        ("livelock_pair".into(), 0),
    ]
}

/// The knobs [`whodunit_sim::explore::shrink`] may reduce.
pub const SHRINKABLE_KNOBS: &[&str] = &["clients"];

/// Resolves a repro into a concrete [`TpcwConfig`]. Unknown channel,
/// process, and machine roles are ignored (a repro sampled from a
/// larger space still runs); later fault entries for the same role and
/// class overwrite earlier ones.
pub fn config_of(repro: &ChaosRepro) -> TpcwConfig {
    let knob = |name: &str, default: u64| repro.knob(name).unwrap_or(default);
    TpcwConfig {
        clients: knob("clients", 16) as u32,
        duration: knob("duration", CHAOS_HORIZON),
        warmup: knob("warmup", 15 * CPU_HZ),
        db_timeout: knob("db_timeout", CPU_HZ / 2),
        images_per_page: knob("images_per_page", 2) as u32,
        search_terms: knob("search_terms", 500),
        seed: repro.seed,
        sched: repro.policy.parse().unwrap_or_default(),
        step_budget: match knob("step_budget", STEP_BUDGET) {
            0 => None,
            b => Some(b),
        },
        livelock_pair: knob("livelock_pair", 0) != 0,
        faults: Some(ScenarioFaults::from_repro(repro, "front", "db", "mysql")),
        ..TpcwConfig::default()
    }
}

/// Everything observable about one executed scenario.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Oracle violations, in oracle order (empty = clean run).
    pub violations: Vec<Violation>,
    /// FNV-1a fingerprint over the dumps, counters, ground truth, and
    /// outcome — equal fingerprints mean bit-identical runs.
    pub fingerprint: u64,
    /// Human-readable run outcome.
    pub outcome: String,
    /// Messages dropped / duplicated / delayed on the wire.
    pub faults_seen: (u64, u64, u64),
}

impl ScenarioResult {
    /// Whether a violation of the given kind (see
    /// [`Violation::kind`]) occurred.
    pub fn has_violation(&self, kind: &str) -> bool {
        self.violations.iter().any(|v| v.kind() == kind)
    }
}

/// Executes a repro on the TPC-W stack and checks every oracle.
pub fn run_scenario(repro: &ChaosRepro) -> ScenarioResult {
    let r = run_tpcw(config_of(repro));
    let seen = (r.dropped_msgs, r.duplicated_msgs, r.delayed_msgs);
    judge(repro, r.dumps, r.compute_truth, seen, &r.outcome)
}

/// The verdict on one executed run of any assembly: the oracle
/// [`Evidence`] (which fault classes `repro` permits against what the
/// wire saw), every violation [`check_all`] finds, and the run
/// fingerprint over the dumps, the dropped / duplicated / delayed
/// counters, the ground-truth compute cycles and the outcome.
pub(crate) fn judge(
    repro: &ChaosRepro,
    dumps: Vec<StageDump>,
    compute_truth: Vec<u64>,
    faults_seen: (u64, u64, u64),
    outcome: &RunOutcome,
) -> ScenarioResult {
    let progress = match outcome {
        RunOutcome::ReachedLimit | RunOutcome::Idle => ProgressState::Completed,
        RunOutcome::Deadlock(d) => ProgressState::Deadlock(d.to_string()),
        RunOutcome::Livelock(l) => ProgressState::Livelock(l.to_string()),
    };
    let has = |pred: &dyn Fn(&FaultEntry) -> bool| repro.faults.iter().any(pred);
    let (dropped, duplicated, delayed) = faults_seen;
    let ev = Evidence {
        compute_truth,
        drops_permitted: has(&|f| matches!(f, FaultEntry::Drop { ppm, .. } if *ppm > 0)),
        dups_permitted: has(&|f| matches!(f, FaultEntry::Dup { ppm, .. } if *ppm > 0)),
        delays_permitted: has(&|f| matches!(f, FaultEntry::Delay { ppm, .. } if *ppm > 0)),
        crash_permitted: has(&|f| matches!(f, FaultEntry::Crash { .. })),
        dropped,
        duplicated,
        delayed,
        progress,
        dumps,
    };
    let violations = check_all(&ev);

    let mut h = Fnv64::new();
    dumpjson::to_json_into(&ev.dumps, &mut h);
    for n in [dropped, duplicated, delayed] {
        h.write_u64(n);
    }
    for &t in &ev.compute_truth {
        h.write(&t.to_le_bytes());
    }
    let outcome = outcome.to_string();
    h.write(outcome.as_bytes());

    ScenarioResult {
        violations,
        fingerprint: h.finish(),
        outcome,
        faults_seen,
    }
}

/// Shrinking predicate: does the candidate still trigger a violation of
/// `kind`? This re-executes the full scenario per candidate.
pub fn still_fails_with(candidate: &ChaosRepro, kind: &str) -> bool {
    run_scenario(candidate).has_violation(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use whodunit_sim::SchedulePolicy;

    fn tiny_repro() -> ChaosRepro {
        let mut r = ChaosRepro {
            seed: 3,
            policy: "fifo".into(),
            workload: default_workload(),
            faults: Vec::new(),
            violation: None,
            window: None,
        };
        r.set_knob("clients", 6);
        r.set_knob("duration", 20 * CPU_HZ);
        r.set_knob("warmup", 5 * CPU_HZ);
        r.set_knob("images_per_page", 1);
        r
    }

    #[test]
    fn config_resolution_maps_roles_and_knobs() {
        let mut r = tiny_repro();
        r.policy = "random:99".into();
        r.faults = vec![
            FaultEntry::Drop {
                chan: "db".into(),
                ppm: 50_000,
            },
            FaultEntry::Delay {
                chan: "front".into(),
                ppm: 100_000,
                cycles: 777,
            },
            FaultEntry::Crash {
                proc: "mysql".into(),
                at: 12 * CPU_HZ,
            },
            FaultEntry::Slowdown {
                machine: "mysql".into(),
                from: 1,
                until: 2,
                factor: 3,
            },
            FaultEntry::Drop {
                chan: "unknown-role".into(),
                ppm: 999_999,
            },
        ];
        let cfg = config_of(&r);
        assert_eq!(cfg.clients, 6);
        assert_eq!(cfg.sched, SchedulePolicy::Random { seed: 99 });
        assert_eq!(cfg.step_budget, Some(2_000_000));
        let f = cfg.faults.unwrap();
        assert!((f.backbone.drop_p - 0.05).abs() < 1e-12);
        assert!((f.front.delay_p - 0.1).abs() < 1e-12);
        assert_eq!(f.front.delay_cycles, 777);
        assert_eq!(f.crash_at, Some(12 * CPU_HZ));
        assert_eq!(f.slowdown, Some((1, 2, 3)));
        assert_eq!(f.front.drop_p, 0.0, "unknown role ignored");
    }

    #[test]
    fn clean_scenario_passes_every_oracle_and_is_reproducible() {
        let r = tiny_repro();
        let a = run_scenario(&r);
        let b = run_scenario(&r);
        assert_eq!(a.violations, vec![], "clean run violates nothing");
        assert_eq!(a.fingerprint, b.fingerprint, "bit-identical replay");
    }

    #[test]
    fn different_policies_reach_different_executions() {
        // Needs real lock contention at MySQL (see default_workload);
        // below that, the ready queue never holds two threads at once
        // and every policy degenerates to the same execution.
        let mut fifo = tiny_repro();
        fifo.set_knob("clients", 60);
        fifo.set_knob("duration", 60 * CPU_HZ);
        fifo.set_knob("warmup", 10 * CPU_HZ);
        fifo.policy = "fifo".into();
        let mut lifo = fifo.clone();
        lifo.policy = "lifo".into();
        let a = run_scenario(&fifo);
        let b = run_scenario(&lifo);
        // Both legal, both clean — but genuinely distinct interleavings.
        assert_eq!(a.violations, vec![]);
        assert_eq!(b.violations, vec![]);
        assert_ne!(a.fingerprint, b.fingerprint, "policy changed the run");
    }

    #[test]
    fn planted_livelock_is_caught_by_the_progress_oracle() {
        let mut r = tiny_repro();
        r.set_knob("livelock_pair", 1);
        r.set_knob("step_budget", 10_000);
        let res = run_scenario(&r);
        assert!(res.has_violation("progress"), "got {:?}", res.violations);
        assert!(res.outcome.contains("livelock"), "outcome: {}", res.outcome);
        assert!(still_fails_with(&r, "progress"));
    }
}
