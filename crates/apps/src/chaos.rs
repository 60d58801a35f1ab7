//! Chaos harness: the bridge between the pure-data chaos layer
//! ([`whodunit_core::repro`], [`whodunit_sim::explore`]) and the
//! assemblies a sampled scenario runs on ([`crate::tpcw`] and the
//! [`crate::zoo`] topologies), with the one verdict every run gets.
//!
//! An [`Assembly`] declares what a scenario may touch
//! ([`Assembly::space`]) and which workload knobs a repro carries
//! ([`Assembly::workload`]); [`Assembly::run`] resolves a repro the
//! same way for every assembly, runs it, and hands the run to `judge`,
//! which checks every oracle over the [`Evidence`] and fingerprints the
//! run's complete observable state — two runs of the same repro must
//! produce equal fingerprints, which is what makes a repro file a
//! *repro* rather than a suggestion.

use crate::harness::{RunTail, Stream};
use crate::tpcw::{run_tpcw_on, TpcwConfig};
use crate::zoo::{run_zoo_on, Topology, ZooConfig};
use crate::STEP_BUDGET;
use whodunit_core::cost::CPU_HZ;
use whodunit_core::delta::DeltaSink;
use whodunit_core::dumpjson;
use whodunit_core::hash::Fnv64;
use whodunit_core::oracle::{check_all, Evidence, ProgressState, Violation};
use whodunit_core::repro::{ChaosRepro, FaultEntry};
use whodunit_core::stitch::StageDump;
use whodunit_sim::explore::{ChaosSpace, ScenarioFaults};
use whodunit_sim::{RunOutcome, SchedulePolicy};

/// The knobs [`whodunit_sim::explore::shrink`] may reduce.
pub const SHRINKABLE_KNOBS: &[&str] = &["clients"];

/// A simulated assembly that chaos scenarios run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Assembly {
    /// The 3-tier TPC-W stack squid → tomcat → mysql.
    Tpcw,
    /// One member of the topology zoo.
    Zoo(Topology),
}

impl Assembly {
    /// Every assembly, TPC-W first, then the zoo in bench order.
    pub const ALL: [Assembly; 4] = [
        Assembly::Tpcw,
        Assembly::Zoo(Topology::Fanout),
        Assembly::Zoo(Topology::PubSub),
        Assembly::Zoo(Topology::CacheWt),
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Assembly::Tpcw => "tpcw",
            Assembly::Zoo(t) => t.name(),
        }
    }

    /// The backbone channel role and the victim (crashable, slowable)
    /// role; the other channel role is always `"front"`.
    fn roles(self) -> (&'static str, &'static str) {
        match self {
            Assembly::Tpcw => ("db", "mysql"),
            Assembly::Zoo(Topology::Fanout) => ("backbone", "svc"),
            Assembly::Zoo(Topology::PubSub) => ("backbone", "sub"),
            Assembly::Zoo(Topology::CacheWt) => ("backbone", "store"),
        }
    }

    /// The sampling space: what a scenario may touch.
    pub fn space(self) -> ChaosSpace {
        let (backbone, victim) = self.roles();
        let (channels, max_fault_ppm) = match self {
            // Up to 15% per fault class: stormy, but the site still
            // serves.
            Assembly::Tpcw => ([backbone, "front"], 150_000),
            Assembly::Zoo(_) => (["front", backbone], 100_000),
        };
        ChaosSpace {
            channels: channels.map(String::from).to_vec(),
            crashable: vec![victim.into()],
            slowable: vec![victim.into()],
            horizon: self.default_of("duration"),
            max_fault_ppm,
            // Up to 20 ms of extra delivery delay.
            max_delay: CPU_HZ / 50,
        }
    }

    /// The workload knobs and their defaults. Times are cycles so the
    /// repro file stays integer-exact; `livelock_pair` is 0/1.
    fn defaults(self) -> &'static [(&'static str, u64)] {
        match self {
            Assembly::Tpcw => &[
                // Enough concurrency for table-lock contention at
                // MySQL — contended unlocks are what puts ≥ 2 threads
                // in the ready queue at one instant, which is where the
                // schedule policy actually picks.
                ("clients", 48),
                ("duration", 60 * CPU_HZ),
                ("warmup", 15 * CPU_HZ),
                ("db_timeout", CPU_HZ / 2),
                ("images_per_page", 2),
                ("search_terms", 500),
                ("step_budget", STEP_BUDGET),
                ("livelock_pair", 0),
            ],
            Assembly::Zoo(_) => &[
                ("clients", 12),
                ("services", 3),
                ("duration", 30 * CPU_HZ),
                ("warmup", 5 * CPU_HZ),
                ("rpc_timeout", CPU_HZ / 2),
                ("step_budget", STEP_BUDGET),
                ("livelock_pair", 0),
            ],
        }
    }

    /// The workload knobs a repro of this assembly carries, at their
    /// defaults.
    pub fn workload(self) -> Vec<(String, u64)> {
        let knobs = self.defaults().iter();
        knobs.map(|&(n, v)| (n.to_owned(), v)).collect()
    }

    /// The default of a workload knob. Panics on a name the assembly
    /// does not declare: that is a misspelt knob in the harness, and
    /// running it at some fallback would hide it.
    fn default_of(self, name: &str) -> u64 {
        let entry = self.defaults().iter().find(|(n, _)| *n == name);
        entry
            .unwrap_or_else(|| panic!("{}: no workload knob '{name}'", self.name()))
            .1
    }

    /// A workload knob of `repro`, or its default when the repro does
    /// not carry it; `name` must be one [`Assembly::workload`] lists.
    pub fn knob(self, repro: &ChaosRepro, name: &str) -> u64 {
        let default = self.default_of(name);
        repro.knob(name).unwrap_or(default)
    }

    /// What every assembly's run takes from a repro: the schedule
    /// policy, the step budget (0 = off), the livelock pair, and the
    /// faults in this assembly's roles. Unknown roles are ignored (a
    /// repro sampled from a larger space still runs); later fault
    /// entries for the same role and class overwrite earlier ones.
    fn resolve(self, repro: &ChaosRepro) -> (SchedulePolicy, Option<u64>, bool, ScenarioFaults) {
        let (backbone, victim) = self.roles();
        (
            repro.policy.parse().unwrap_or_default(),
            Some(self.knob(repro, "step_budget")).filter(|&b| b > 0),
            self.knob(repro, "livelock_pair") != 0,
            ScenarioFaults::from_repro(repro, "front", backbone, victim),
        )
    }

    /// Executes a repro on this assembly and checks every oracle.
    pub fn run(self, repro: &ChaosRepro) -> ScenarioResult {
        self.run_on(repro, None)
    }

    /// [`Assembly::run`] in streaming mode: each epoch's profile
    /// increment goes to `sink`, and the verdict (fingerprint
    /// included) is the batch run's.
    pub fn run_streaming(
        self,
        repro: &ChaosRepro,
        epoch_len: u64,
        sink: &mut dyn DeltaSink,
    ) -> ScenarioResult {
        self.run_on(repro, Some((epoch_len, sink)))
    }

    fn run_on(self, repro: &ChaosRepro, stream: Stream<'_>) -> ScenarioResult {
        let (sched, step_budget, livelock_pair, faults) = self.resolve(repro);
        let faults = Some(faults);
        let knob = |name: &str| self.knob(repro, name);
        let (dumps, tail) = match self {
            Assembly::Tpcw => {
                let cfg = TpcwConfig {
                    clients: knob("clients") as u32,
                    duration: knob("duration"),
                    warmup: knob("warmup"),
                    db_timeout: knob("db_timeout"),
                    images_per_page: knob("images_per_page") as u32,
                    search_terms: knob("search_terms"),
                    seed: repro.seed,
                    sched,
                    step_budget,
                    livelock_pair,
                    faults,
                    ..TpcwConfig::default()
                };
                let r = run_tpcw_on(cfg, stream);
                (r.dumps, r.tail)
            }
            Assembly::Zoo(topology) => {
                let cfg = ZooConfig {
                    topology,
                    clients: knob("clients") as u32,
                    services: knob("services") as u32,
                    duration: knob("duration"),
                    warmup: knob("warmup"),
                    rpc_timeout: knob("rpc_timeout"),
                    seed: repro.seed,
                    sched,
                    step_budget,
                    livelock_pair,
                    faults,
                    ..ZooConfig::default()
                };
                let r = run_zoo_on(&cfg, stream);
                (r.dumps, r.tail)
            }
        };
        judge(repro, dumps, tail)
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

/// The verdict on one executed run of any assembly: the oracle
/// [`Evidence`] (which fault classes `repro` permits against what the
/// wire saw), every violation [`check_all`] finds, and the run
/// fingerprint over the dumps, the dropped / duplicated / delayed
/// counters, the ground-truth compute cycles and the outcome.
fn judge(repro: &ChaosRepro, dumps: Vec<StageDump>, tail: RunTail) -> ScenarioResult {
    let progress = match &tail.outcome {
        RunOutcome::ReachedLimit | RunOutcome::Idle => ProgressState::Completed,
        RunOutcome::Deadlock(d) => ProgressState::Deadlock(d.to_string()),
        RunOutcome::Livelock(l) => ProgressState::Livelock(l.to_string()),
    };
    let has = |pred: &dyn Fn(&FaultEntry) -> bool| repro.faults.iter().any(pred);
    let faults_seen = (tail.dropped_msgs, tail.duplicated_msgs, tail.delayed_msgs);
    let (dropped, duplicated, delayed) = faults_seen;
    let ev = Evidence {
        compute_truth: tail.compute_truth,
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
    let outcome = tail.outcome.to_string();
    h.write(outcome.as_bytes());

    ScenarioResult {
        violations,
        fingerprint: h.finish(),
        outcome,
        faults_seen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_repro() -> ChaosRepro {
        let mut r = ChaosRepro {
            seed: 3,
            policy: "fifo".into(),
            workload: Assembly::Tpcw.workload(),
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
        let a = Assembly::Tpcw;
        assert_eq!(a.knob(&r, "clients"), 6);
        let (sched, step_budget, livelock_pair, f) = a.resolve(&r);
        assert_eq!(sched, SchedulePolicy::Random { seed: 99 });
        assert_eq!(step_budget, Some(STEP_BUDGET));
        assert!(!livelock_pair);
        assert!((f.backbone.drop_p - 0.05).abs() < 1e-12);
        assert!((f.front.delay_p - 0.1).abs() < 1e-12);
        assert_eq!(f.front.delay_cycles, 777);
        assert_eq!(f.crash_at, Some(12 * CPU_HZ));
        assert_eq!(f.slowdown, Some((1, 2, 3)));
        assert_eq!(f.front.drop_p, 0.0, "unknown role ignored");

        // A knob the repro does not carry falls back to the workload's
        // default, and a zero step budget turns the bound off.
        r.workload.retain(|(n, _)| n != "search_terms");
        r.set_knob("step_budget", 0);
        assert_eq!(a.knob(&r, "search_terms"), 500);
        assert_eq!(a.resolve(&r).1, None);
    }

    #[test]
    #[should_panic(expected = "no workload knob 'client'")]
    fn an_undeclared_knob_name_is_a_bug() {
        Assembly::Tpcw.knob(&tiny_repro(), "client");
    }

    #[test]
    fn clean_scenario_passes_every_oracle_and_is_reproducible() {
        let r = tiny_repro();
        let a = Assembly::Tpcw.run(&r);
        let b = Assembly::Tpcw.run(&r);
        assert_eq!(a.violations, vec![], "clean run violates nothing");
        assert_eq!(a.fingerprint, b.fingerprint, "bit-identical replay");
    }

    #[test]
    fn different_policies_reach_different_executions() {
        // Needs real lock contention at MySQL (see the TPC-W workload
        // defaults); below that, the ready queue never holds two
        // threads at once and every policy degenerates to the same
        // execution.
        let mut fifo = tiny_repro();
        fifo.set_knob("clients", 60);
        fifo.set_knob("duration", 60 * CPU_HZ);
        fifo.set_knob("warmup", 10 * CPU_HZ);
        fifo.policy = "fifo".into();
        let mut lifo = fifo.clone();
        lifo.policy = "lifo".into();
        let a = Assembly::Tpcw.run(&fifo);
        let b = Assembly::Tpcw.run(&lifo);
        // Both legal, both clean — but genuinely distinct interleavings.
        assert_eq!(a.violations, vec![]);
        assert_eq!(b.violations, vec![]);
        assert_ne!(a.fingerprint, b.fingerprint, "policy changed the run");
    }

    #[test]
    fn streaming_and_batch_runs_get_one_verdict() {
        for a in Assembly::ALL {
            let mut r = tiny_repro();
            r.workload = a.workload();
            r.set_knob("clients", 4);
            r.set_knob("duration", 8 * CPU_HZ);
            r.set_knob("warmup", 2 * CPU_HZ);
            let mut sink = whodunit_core::delta::RecordingSink::default();
            let s = a.run_streaming(&r, CPU_HZ, &mut sink);
            let b = a.run(&r);
            assert!(
                !sink.batches.is_empty(),
                "{}: the sink saw the epochs",
                a.name()
            );
            assert_eq!(s.fingerprint, b.fingerprint, "{}", a.name());
            assert_eq!(s.violations, b.violations, "{}", a.name());
        }
    }
}
