//! Invariant oracles for chaos exploration.
//!
//! After every chaos run the harness assembles an [`Evidence`] bundle —
//! the stage dumps, the simulator's ground-truth compute cycles, the
//! channel fault counters, and the run's terminal progress state — and
//! [`check_all`] evaluates every invariant the transactional profiler
//! is supposed to uphold *regardless of the fault plan or schedule*:
//!
//! 1. **Profile-mass conservation** — per profiled tier, the cycles
//!    recorded across every context's CCT sum exactly to the
//!    simulator's ground truth.
//! 2. **Context-dictionary consistency** — every dump validates
//!    ([`StageDump::validate`]) and no raw synopsis is minted by two
//!    different (stage, context) entries.
//! 3. **Stitch completeness** — every remote context is accounted for
//!    as exactly one resolved request edge or one explicit unresolved
//!    edge; none vanish silently.
//! 4. **No unexplained degradation** — unresolved edges only appear
//!    when the fault plan could have caused them, and the channel
//!    drop/duplicate/delay counters are only nonzero when the plan
//!    permits that fault class.
//! 5. **Bounded progress** — the run neither deadlocked nor livelocked
//!    (as reported by the substrate's detectors).
//!
//! Violations are data, not panics: the chaos explorer serializes the
//! scenario to a repro file ([`crate::repro`]) and shrinks it while the
//! violation persists.

use crate::pipeline::{analyze, PipelineConfig};
use crate::stitch::StageDump;
use std::collections::HashMap;
use std::fmt;

/// Terminal progress state of a run, as reported by the substrate's
/// deadlock/livelock detectors. The harness converts the simulator's
/// run outcome into this substrate-agnostic form.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum ProgressState {
    /// The run completed (reached its time limit or drained cleanly).
    #[default]
    Completed,
    /// The run deadlocked; the string describes the lock cycle.
    Deadlock(String),
    /// The run livelocked; the string names the spinning threads.
    Livelock(String),
}

/// Everything an oracle may inspect about one finished chaos run.
#[derive(Clone, Debug, Default)]
pub struct Evidence {
    /// Per-stage profile dumps, in tier order.
    pub dumps: Vec<StageDump>,
    /// Simulator ground-truth compute cycles, parallel to `dumps`.
    pub compute_truth: Vec<u64>,
    /// Whether the fault plan permits message drops.
    pub drops_permitted: bool,
    /// Whether the fault plan permits message duplication.
    pub dups_permitted: bool,
    /// Whether the fault plan permits message delays.
    pub delays_permitted: bool,
    /// Whether the fault plan permits a process crash.
    pub crash_permitted: bool,
    /// Messages actually dropped (substrate counter).
    pub dropped: u64,
    /// Messages actually duplicated (substrate counter).
    pub duplicated: u64,
    /// Messages actually delayed (substrate counter).
    pub delayed: u64,
    /// Terminal progress state of the run.
    pub progress: ProgressState,
}

/// The mass ledger of one federation subtree: what the root received
/// from it versus what the workload actually fed it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SubtreeMass {
    /// Subtree label (leaf or regional id) as rendered in the topology
    /// view.
    pub label: String,
    /// Profile mass the root applied from this subtree's frames.
    pub delivered: u64,
    /// Ground-truth profile mass the workload fed the subtree.
    pub truth: u64,
    /// Whether the root finalized this subtree as degraded
    /// (unrecoverable within the deadline).
    pub degraded: bool,
}

/// Everything the federation oracle may inspect about one finished
/// federated run.
#[derive(Clone, Debug, Default)]
pub struct FederationEvidence {
    /// Per-subtree delivery ledger, in topology order.
    pub subtrees: Vec<SubtreeMass>,
    /// Profile mass the root's accumulator ended with.
    pub root_mass: u64,
    /// The coverage fraction the root *reported*, in parts-per-million.
    pub reported_coverage_ppm: u64,
}

impl Evidence {
    /// Whether any fault class that can sever cross-stage attribution
    /// (lost messages, dead tiers) was permitted.
    fn degradation_permitted(&self) -> bool {
        self.drops_permitted || self.crash_permitted
    }
}

/// One invariant violation found by [`check_all`] or by one of the
/// other oracles of this module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A tier's profiled cycles diverge from simulator ground truth.
    MassConservation {
        /// Stage index.
        stage: usize,
        /// Cycles summed over the stage's dumped CCTs.
        profiled: u64,
        /// The simulator's ground-truth compute cycles.
        truth: u64,
    },
    /// A dump failed validation, or a raw synopsis was minted twice.
    ContextDictionary {
        /// Stage index (the second minter, for duplicates).
        stage: usize,
        /// What was inconsistent.
        detail: String,
    },
    /// Remote contexts are not fully accounted for by resolved +
    /// unresolved edges — some vanished from the stitched profile.
    StitchCompleteness {
        /// Remote contexts across all valid stages.
        remote_contexts: usize,
        /// Resolved request edges + explicit unresolved edges.
        accounted: usize,
    },
    /// Unresolved edges appeared although no permitted fault class can
    /// explain a missing sender.
    UnresolvedWithoutFault {
        /// Number of unresolved edges.
        count: usize,
    },
    /// A channel fault counter is nonzero although the plan does not
    /// permit that fault class (lost/duplicated synopses beyond what
    /// the plan allows).
    SynopsisAccounting {
        /// Which counter: `"dropped"`, `"duplicated"`, or `"delayed"`.
        counter: &'static str,
        /// Its value.
        count: u64,
    },
    /// The run deadlocked or livelocked.
    Progress {
        /// The substrate's diagnostic.
        detail: String,
    },
    /// A federation subtree's delivered mass diverges from what the
    /// workload fed it (non-degraded subtrees must deliver exactly;
    /// degraded ones may deliver less, never more), or the root's mass
    /// is not the sum of the subtree deliveries.
    FederationMass {
        /// Subtree label, or `"root"` for the root-sum check.
        subtree: String,
        /// Mass the root applied from the subtree.
        delivered: u64,
        /// Ground-truth mass the subtree ingested.
        truth: u64,
    },
    /// The coverage fraction the root reported diverges from the
    /// delivered/truth ledger — degraded mass was hidden or overstated.
    FederationCoverage {
        /// Coverage the root reported (ppm).
        reported_ppm: u64,
        /// Coverage implied by the ledger (ppm).
        actual_ppm: u64,
    },
    /// The sentinel emitted a repro that does not hold up: it tripped
    /// on a clean scenario, its replay diverged from the captured run,
    /// or the replay failed to re-trip the recorded SLO dimension.
    FalseRepro {
        /// The SLO dimension the capture recorded.
        dimension: String,
        /// Why the repro is false.
        detail: String,
    },
    /// Black-box inference scoring does not hold up: the claimed
    /// correct mass exceeds what ground truth contains, or a reported
    /// precision/recall/F1 rate disagrees with the counts it was
    /// supposedly computed from. Scores must be derived, never
    /// fabricated.
    InferenceAccounting {
        /// Which metric family: `"pairs"` or `"origins"`.
        metric: &'static str,
        /// Why the score is unsound.
        detail: String,
    },
}

impl Violation {
    /// Stable discriminant string, used to match a replayed violation
    /// against the one recorded in a repro file.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::MassConservation { .. } => "mass-conservation",
            Violation::ContextDictionary { .. } => "context-dictionary",
            Violation::StitchCompleteness { .. } => "stitch-completeness",
            Violation::UnresolvedWithoutFault { .. } => "unresolved-without-fault",
            Violation::SynopsisAccounting { .. } => "synopsis-accounting",
            Violation::FederationMass { .. } => "federation-mass",
            Violation::FederationCoverage { .. } => "federation-coverage",
            Violation::Progress { .. } => "progress",
            Violation::FalseRepro { .. } => "false-repro",
            Violation::InferenceAccounting { .. } => "inference-accounting",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MassConservation {
                stage,
                profiled,
                truth,
            } => write!(
                f,
                "mass-conservation: stage {stage} profiled {profiled} cycles, truth {truth}"
            ),
            Violation::ContextDictionary { stage, detail } => {
                write!(f, "context-dictionary: stage {stage}: {detail}")
            }
            Violation::StitchCompleteness {
                remote_contexts,
                accounted,
            } => write!(
                f,
                "stitch-completeness: {remote_contexts} remote contexts but only \
                 {accounted} accounted edges"
            ),
            Violation::UnresolvedWithoutFault { count } => write!(
                f,
                "unresolved-without-fault: {count} unresolved edges with no drop/crash permitted"
            ),
            Violation::SynopsisAccounting { counter, count } => write!(
                f,
                "synopsis-accounting: {count} {counter} messages but the plan permits none"
            ),
            Violation::FederationMass {
                subtree,
                delivered,
                truth,
            } => write!(
                f,
                "federation-mass: subtree {subtree} delivered {delivered} cycles, truth {truth}"
            ),
            Violation::FederationCoverage {
                reported_ppm,
                actual_ppm,
            } => write!(
                f,
                "federation-coverage: root reported {reported_ppm} ppm but the ledger \
                 implies {actual_ppm} ppm"
            ),
            Violation::Progress { detail } => write!(f, "progress: {detail}"),
            Violation::FalseRepro { dimension, detail } => {
                write!(f, "false-repro: [{dimension}] {detail}")
            }
            Violation::InferenceAccounting { metric, detail } => {
                write!(f, "inference-accounting: [{metric}] {detail}")
            }
        }
    }
}

/// Everything the zero-false-repro oracle may inspect about one
/// sentinel capture: what the sentinel claimed, and what a fresh replay
/// of the emitted (shrunk) repro actually produced.
#[derive(Clone, Debug, Default)]
pub struct CaptureEvidence {
    /// The SLO dimension the capture recorded
    /// ([`crate::repro::ReproWindow::dimension`]).
    pub dimension: String,
    /// Whether the captured scenario's fault plan was empty — a clean
    /// run, on which the sentinel must never trip.
    pub clean_scenario: bool,
    /// Fingerprint of the originally captured (window-truncated) run.
    pub original_fingerprint: u64,
    /// Fingerprint of replaying the emitted repro bundle.
    pub replay_fingerprint: u64,
    /// Whether the replay re-tripped the recorded dimension under the
    /// same budget.
    pub retripped: bool,
}

/// The zero-false-repro oracle: a capture is *false* — and the sentinel
/// broken — if it fired on a clean scenario, if the emitted repro does
/// not replay bit-identically, or if the replay fails to re-trip the
/// recorded SLO dimension. Returns all violations found (empty means
/// the capture is sound).
pub fn check_capture(ev: &CaptureEvidence) -> Vec<Violation> {
    let mut out = Vec::new();
    let flag = |out: &mut Vec<Violation>, detail: String| {
        out.push(Violation::FalseRepro {
            dimension: ev.dimension.clone(),
            detail,
        });
    };
    if ev.clean_scenario {
        flag(&mut out, "sentinel tripped on a clean scenario".into());
    }
    if ev.replay_fingerprint != ev.original_fingerprint {
        flag(
            &mut out,
            format!(
                "replay fingerprint {:016x} != captured {:016x}",
                ev.replay_fingerprint, ev.original_fingerprint
            ),
        );
    }
    if !ev.retripped {
        flag(
            &mut out,
            "replay did not re-trip the recorded dimension".into(),
        );
    }
    out
}

/// Precision/recall arithmetic in parts-per-million. An empty
/// denominator is vacuously perfect: asserting nothing asserts nothing
/// false, and a truth set with nothing to find is fully found.
pub fn ppm(num: u64, den: u64) -> u64 {
    num.saturating_mul(1_000_000)
        .checked_div(den)
        .unwrap_or(1_000_000)
}

/// Harmonic mean of two ppm rates (the F1 of a ppm precision/recall).
pub fn f1_ppm(precision_ppm: u64, recall_ppm: u64) -> u64 {
    (2 * precision_ppm.saturating_mul(recall_ppm))
        .checked_div(precision_ppm + recall_ppm)
        .unwrap_or(0)
}

/// One scored inference metric family (message pairings, or request
/// origins): the raw counts plus the rates that were *reported* from
/// them. The oracle recomputes the rates; a mismatch means the score
/// was fabricated rather than derived.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InferenceScore {
    /// Items the inference asserted (pairings or origin attributions).
    pub asserted: u64,
    /// Items ground truth contains.
    pub truth: u64,
    /// Asserted items that match ground truth.
    pub correct: u64,
    /// Precision the scorer reported, ppm.
    pub reported_precision_ppm: u64,
    /// Recall the scorer reported, ppm.
    pub reported_recall_ppm: u64,
    /// F1 the scorer reported, ppm.
    pub reported_f1_ppm: u64,
}

/// Everything the inference-scoring oracle may inspect about one
/// scored scenario.
#[derive(Clone, Debug, Default)]
pub struct InferenceEvidence {
    /// Message-pairing scores (recv → send attribution).
    pub pairs: InferenceScore,
    /// Origin scores (recv → transaction-root attribution).
    pub origins: InferenceScore,
}

/// The inference-scoring oracle: inferred mass may never exceed ground
/// truth (`correct <= truth`, `correct <= asserted`), and every
/// reported rate must equal the one recomputed from the counts. An
/// inference pass that peeked at the truth tables — or a scorer that
/// rounded itself up — fails here. Returns all violations found.
pub fn check_inference(ev: &InferenceEvidence) -> Vec<Violation> {
    let mut out = Vec::new();
    for (metric, s) in [("pairs", &ev.pairs), ("origins", &ev.origins)] {
        let flag = |out: &mut Vec<Violation>, detail: String| {
            out.push(Violation::InferenceAccounting { metric, detail });
        };
        if s.correct > s.asserted {
            flag(
                &mut out,
                format!("{} correct but only {} asserted", s.correct, s.asserted),
            );
        }
        if s.correct > s.truth {
            flag(
                &mut out,
                format!(
                    "inferred mass exceeds ground truth: {} correct, {} true items",
                    s.correct, s.truth
                ),
            );
        }
        let precision = ppm(s.correct, s.asserted);
        let recall = ppm(s.correct, s.truth);
        let f1 = f1_ppm(precision, recall);
        for (name, reported, actual) in [
            ("precision", s.reported_precision_ppm, precision),
            ("recall", s.reported_recall_ppm, recall),
            ("f1", s.reported_f1_ppm, f1),
        ] {
            if reported != actual {
                flag(
                    &mut out,
                    format!("reported {name} {reported} ppm, counts imply {actual} ppm"),
                );
            }
        }
    }
    out
}

/// Cycles summed over every node of every CCT in a dump — the stage's
/// total profiled mass (node cycles are exclusive, so a flat sum is the
/// tree's inclusive total).
pub fn profile_mass(d: &StageDump) -> u64 {
    d.ccts
        .iter()
        .flat_map(|c| c.nodes.iter())
        .map(|n| n.cycles)
        .sum()
}

/// The federation mass-conservation oracle: every non-degraded subtree
/// must deliver exactly the mass the workload fed it; a degraded
/// subtree may deliver less (its missing mass is the explanation for
/// `coverage < 1.0`) but never more; the root's mass must be exactly
/// the sum of the subtree deliveries; and the coverage fraction the
/// root reported must match the delivered/truth ledger.
pub fn check_federation(fed: &FederationEvidence) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut delivered_total = 0u64;
    let mut truth_total = 0u64;
    for s in &fed.subtrees {
        delivered_total += s.delivered;
        truth_total += s.truth;
        let conserved = if s.degraded {
            s.delivered <= s.truth
        } else {
            s.delivered == s.truth
        };
        if !conserved {
            out.push(Violation::FederationMass {
                subtree: s.label.clone(),
                delivered: s.delivered,
                truth: s.truth,
            });
        }
    }
    if fed.root_mass != delivered_total {
        out.push(Violation::FederationMass {
            subtree: "root".into(),
            delivered: fed.root_mass,
            truth: delivered_total,
        });
    }
    let actual_ppm = ppm(delivered_total, truth_total);
    if fed.reported_coverage_ppm != actual_ppm {
        out.push(Violation::FederationCoverage {
            reported_ppm: fed.reported_coverage_ppm,
            actual_ppm,
        });
    }
    out
}

/// Runs every oracle over the evidence. Returns all violations found,
/// in oracle order (empty means the run upheld every invariant).
pub fn check_all(ev: &Evidence) -> Vec<Violation> {
    let mut out = Vec::new();

    // 1. Profile-mass conservation, per tier.
    for (stage, d) in ev.dumps.iter().enumerate() {
        let truth = match ev.compute_truth.get(stage) {
            Some(&t) => t,
            None => continue,
        };
        let profiled = profile_mass(d);
        if profiled != truth {
            out.push(Violation::MassConservation {
                stage,
                profiled,
                truth,
            });
        }
    }

    // 2. Context-dictionary consistency.
    for (stage, d) in ev.dumps.iter().enumerate() {
        if let Err(e) = d.validate() {
            out.push(Violation::ContextDictionary {
                stage,
                detail: e.to_string(),
            });
        }
    }
    let mut minted: HashMap<u64, usize> = HashMap::new();
    for (stage, d) in ev.dumps.iter().enumerate() {
        for &(raw, _) in &d.synopses {
            if let Some(first) = minted.insert(raw, stage) {
                out.push(Violation::ContextDictionary {
                    stage,
                    detail: format!(
                        "raw synopsis {raw:#010x} minted by both stage {first} and stage {stage}"
                    ),
                });
            }
        }
    }

    // 3 + 4a. Stitch completeness and unexplained unresolved edges.
    let stitched = analyze(ev.dumps.clone(), PipelineConfig::default());
    let remote_contexts: usize = stitched
        .stages
        .iter()
        .enumerate()
        .filter(|&(si, _)| stitched.stage_valid(si))
        .map(|(_, d)| {
            d.contexts
                .iter()
                .filter(|c| {
                    matches!(c.atoms.first(), Some(crate::stitch::DumpAtom::Remote(ch)) if !ch.is_empty())
                })
                .count()
        })
        .sum();
    let unresolved = stitched.unresolved.len();
    let accounted = stitched.edges.len() + unresolved;
    if accounted != remote_contexts {
        out.push(Violation::StitchCompleteness {
            remote_contexts,
            accounted,
        });
    }
    if unresolved > 0 && !ev.degradation_permitted() {
        out.push(Violation::UnresolvedWithoutFault { count: unresolved });
    }

    // 4b. Fault counters vs what the plan permits.
    for (counter, count, permitted) in [
        ("dropped", ev.dropped, ev.drops_permitted),
        ("duplicated", ev.duplicated, ev.dups_permitted),
        ("delayed", ev.delayed, ev.delays_permitted),
    ] {
        if count > 0 && !permitted {
            out.push(Violation::SynopsisAccounting { counter, count });
        }
    }

    // 5. Bounded progress.
    match &ev.progress {
        ProgressState::Completed => {}
        ProgressState::Deadlock(d) | ProgressState::Livelock(d) => {
            out.push(Violation::Progress { detail: d.clone() });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stitch::{DumpAtom, DumpCct, DumpContext, DumpNode};
    use std::sync::Arc;

    fn root(cycles: u64) -> DumpNode {
        DumpNode {
            frame: None,
            parent: None,
            samples: 1,
            cycles,
            calls: 1,
        }
    }

    /// Two healthy stages: stage 0 mints synopsis 7, stage 1 holds a
    /// remote context that chains back to it.
    fn healthy() -> Evidence {
        let minter = StageDump {
            proc: 0,
            stage_name: "front".into(),
            frames: vec!["main".into()],
            contexts: vec![DumpContext {
                atoms: vec![DumpAtom::Frame(0)].into(),
            }],
            ccts: vec![DumpCct {
                ctx: 0,
                nodes: vec![root(100)],
            }],
            synopses: vec![(7, 0)],
            ..StageDump::default()
        };
        let receiver = StageDump {
            proc: 1,
            stage_name: "db".into(),
            frames: vec!["query".into()],
            contexts: vec![DumpContext {
                atoms: vec![DumpAtom::Remote(vec![7]), DumpAtom::Frame(0)].into(),
            }],
            ccts: vec![DumpCct {
                ctx: 0,
                nodes: vec![root(40)],
            }],
            ..StageDump::default()
        };
        Evidence {
            dumps: vec![minter, receiver],
            compute_truth: vec![100, 40],
            ..Evidence::default()
        }
    }

    #[test]
    fn clean_run_has_no_violations() {
        assert_eq!(check_all(&healthy()), vec![]);
    }

    #[test]
    fn mass_divergence_is_flagged_per_stage() {
        let mut ev = healthy();
        ev.compute_truth[1] = 41;
        let v = check_all(&ev);
        assert_eq!(
            v,
            vec![Violation::MassConservation {
                stage: 1,
                profiled: 40,
                truth: 41
            }]
        );
        assert_eq!(v[0].kind(), "mass-conservation");
    }

    #[test]
    fn invalid_dump_is_a_dictionary_violation() {
        let mut ev = healthy();
        ev.dumps[0].ccts[0].ctx = 9; // labels a context the dump lacks
        let v = check_all(&ev);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::ContextDictionary { stage: 0, .. })));
    }

    #[test]
    fn duplicate_minting_is_a_dictionary_violation() {
        let mut ev = healthy();
        ev.dumps[1].synopses.push((7, 0)); // stage 1 re-mints stage 0's raw
        let v = check_all(&ev);
        assert!(v.iter().any(
            |x| matches!(x, Violation::ContextDictionary { stage: 1, detail } if detail.contains("minted by both"))
        ));
    }

    #[test]
    fn unresolved_needs_a_permitting_fault() {
        let mut ev = healthy();
        Arc::make_mut(&mut ev.dumps[1].contexts[0].atoms)[0] = DumpAtom::Remote(vec![99]); // nobody minted 99
        let v = check_all(&ev);
        assert_eq!(v, vec![Violation::UnresolvedWithoutFault { count: 1 }]);

        ev.crash_permitted = true;
        assert_eq!(check_all(&ev), vec![]);
        ev.crash_permitted = false;
        ev.drops_permitted = true;
        assert_eq!(check_all(&ev), vec![]);
    }

    #[test]
    fn counters_require_permission() {
        let mut ev = healthy();
        ev.dropped = 3;
        ev.duplicated = 1;
        ev.delayed = 2;
        let kinds: Vec<_> = check_all(&ev).iter().map(|v| v.to_string()).collect();
        assert_eq!(kinds.len(), 3, "{kinds:?}");

        ev.drops_permitted = true;
        ev.dups_permitted = true;
        ev.delays_permitted = true;
        assert_eq!(check_all(&ev), vec![]);
    }

    #[test]
    fn deadlock_and_livelock_are_progress_violations() {
        for progress in [
            ProgressState::Deadlock("t0 -> lock1 -> t1 -> lock0 -> t0".into()),
            ProgressState::Livelock("t3 spun 10000 times".into()),
        ] {
            let ev = Evidence {
                progress: progress.clone(),
                ..healthy()
            };
            let v = check_all(&ev);
            assert_eq!(v.len(), 1);
            assert_eq!(v[0].kind(), "progress");
        }
    }

    fn fed_two_leaves() -> FederationEvidence {
        FederationEvidence {
            subtrees: vec![
                SubtreeMass {
                    label: "leaf0".into(),
                    delivered: 600,
                    truth: 600,
                    degraded: false,
                },
                SubtreeMass {
                    label: "leaf1".into(),
                    delivered: 400,
                    truth: 400,
                    degraded: false,
                },
            ],
            root_mass: 1000,
            reported_coverage_ppm: 1_000_000,
        }
    }

    #[test]
    fn clean_federation_conserves_mass() {
        assert_eq!(check_federation(&fed_two_leaves()), vec![]);
    }

    #[test]
    fn non_degraded_subtree_must_deliver_exactly() {
        let mut fed = fed_two_leaves();
        fed.subtrees[1].delivered = 399;
        fed.root_mass = 999;
        fed.reported_coverage_ppm = 999_000;
        let v = check_federation(&fed);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind(), "federation-mass");
        assert!(v[0].to_string().contains("leaf1"));
    }

    #[test]
    fn degraded_subtree_may_lose_but_not_invent_mass() {
        let mut fed = fed_two_leaves();
        fed.subtrees[1].degraded = true;
        fed.subtrees[1].delivered = 250;
        fed.root_mass = 850;
        fed.reported_coverage_ppm = 850_000;
        assert_eq!(check_federation(&fed), vec![]);

        fed.subtrees[1].delivered = 401; // more than it ever ingested
        fed.root_mass = 1001;
        fed.reported_coverage_ppm = 1_001_000;
        let v = check_federation(&fed);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::FederationMass { subtree, .. } if subtree == "leaf1")));
    }

    #[test]
    fn root_mass_must_equal_subtree_sum() {
        let mut fed = fed_two_leaves();
        fed.root_mass = 990; // root lost mass nobody accounted for
        let v = check_federation(&fed);
        assert_eq!(
            v,
            vec![Violation::FederationMass {
                subtree: "root".into(),
                delivered: 990,
                truth: 1000,
            }]
        );
    }

    #[test]
    fn misreported_coverage_is_flagged() {
        let mut fed = fed_two_leaves();
        fed.subtrees[0].degraded = true;
        fed.subtrees[0].delivered = 300;
        fed.root_mass = 700;
        fed.reported_coverage_ppm = 1_000_000; // hides the degradation
        let v = check_federation(&fed);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind(), "federation-coverage");
        assert_eq!(
            v[0],
            Violation::FederationCoverage {
                reported_ppm: 1_000_000,
                actual_ppm: 700_000,
            }
        );
    }

    #[test]
    fn sound_capture_passes_the_false_repro_oracle() {
        let ev = CaptureEvidence {
            dimension: "slo-latency".into(),
            clean_scenario: false,
            original_fingerprint: 0xABCD,
            replay_fingerprint: 0xABCD,
            retripped: true,
        };
        assert_eq!(check_capture(&ev), vec![]);
    }

    #[test]
    fn false_repro_variants_are_flagged() {
        let sound = CaptureEvidence {
            dimension: "slo-latency".into(),
            clean_scenario: false,
            original_fingerprint: 1,
            replay_fingerprint: 1,
            retripped: true,
        };
        let clean_trip = CaptureEvidence {
            clean_scenario: true,
            ..sound.clone()
        };
        let v = check_capture(&clean_trip);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind(), "false-repro");
        assert!(v[0].to_string().contains("clean scenario"));

        let diverged = CaptureEvidence {
            replay_fingerprint: 2,
            ..sound.clone()
        };
        assert!(check_capture(&diverged)[0]
            .to_string()
            .contains("fingerprint"));

        let no_retrip = CaptureEvidence {
            retripped: false,
            ..sound
        };
        assert!(check_capture(&no_retrip)[0].to_string().contains("re-trip"));
    }

    fn honest_score(asserted: u64, truth: u64, correct: u64) -> InferenceScore {
        let p = ppm(correct, asserted);
        let r = ppm(correct, truth);
        InferenceScore {
            asserted,
            truth,
            correct,
            reported_precision_ppm: p,
            reported_recall_ppm: r,
            reported_f1_ppm: f1_ppm(p, r),
        }
    }

    #[test]
    fn honest_inference_scores_pass() {
        let ev = InferenceEvidence {
            pairs: honest_score(90, 100, 85),
            origins: honest_score(80, 100, 70),
        };
        assert_eq!(check_inference(&ev), vec![]);
        // Degenerate but honest: nothing asserted, nothing true.
        let ev = InferenceEvidence {
            pairs: honest_score(0, 0, 0),
            origins: honest_score(0, 50, 0),
        };
        assert_eq!(check_inference(&ev), vec![]);
    }

    #[test]
    fn inferred_mass_may_not_exceed_truth() {
        let mut ev = InferenceEvidence {
            pairs: honest_score(90, 100, 85),
            origins: honest_score(80, 100, 70),
        };
        ev.pairs.truth = 80; // claims 85 correct out of 80 true items
        ev.pairs.reported_recall_ppm = ppm(85, 80);
        ev.pairs.reported_f1_ppm = f1_ppm(
            ev.pairs.reported_precision_ppm,
            ev.pairs.reported_recall_ppm,
        );
        let v = check_inference(&ev);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind(), "inference-accounting");
        assert!(v[0].to_string().contains("exceeds ground truth"));
    }

    #[test]
    fn fabricated_rates_are_flagged() {
        let mut ev = InferenceEvidence {
            pairs: honest_score(90, 100, 85),
            origins: honest_score(80, 100, 70),
        };
        ev.origins.reported_f1_ppm += 10_000; // rounded itself up
        let v = check_inference(&ev);
        assert_eq!(v.len(), 1);
        assert!(v[0].to_string().contains("reported f1"));
        assert!(v[0].to_string().contains("[origins]"));
    }

    #[test]
    fn empty_chain_remote_is_ignored_not_lost() {
        // A Remote([]) context can't resolve anywhere; the completeness
        // oracle must not count it as a vanished edge.
        let mut ev = healthy();
        Arc::make_mut(&mut ev.dumps[1].contexts[0].atoms)[0] = DumpAtom::Remote(vec![]);
        assert_eq!(check_all(&ev), vec![]);
    }
}
