//! Differential suite: the analysis pipeline against the analysis it
//! replaced, on real TPC-W dumps across seeds × schedule policies ×
//! fault plans. (The file name predates DESIGN.md §14's decision to
//! keep the pipeline single-threaded.)
//!
//! Each scenario runs the 3-tier TPC-W stack once, analyzes the
//! resulting dumps, and cross-validates the report against the legacy
//! `Stitched` resolver (request edges, unresolved edges, warnings,
//! every CCT's origin) and the read side it replaced (dump JSON,
//! stitched and crosstalk texts, fingerprint), so the pipeline cannot
//! drift from the pre-existing analysis. Both references left the
//! product when their replacements landed and are kept beside this
//! suite (`mod legacy_stitched` here, `mod read_oracle` shared).
//!
//! Coverage: 6 seeds × 3 schedule policies (fifo, random, perturb) × 2
//! fault plans (clean, faulty) = 36 scenarios (≥ 32 required by the
//! acceptance gate). The scenario corpus itself is shared with the
//! other differential suites via `whodunit_bench::matrix`.

mod read_oracle;

use legacy_stitched::Stitched;
use whodunit_apps::tpcw::run_tpcw;
use whodunit_bench::matrix::{self, scenario_dumps, schedules, SEEDS};
use whodunit_core::dumpjson;
use whodunit_core::pipeline::{analyze, PipelineConfig};
use whodunit_core::stitch::StageDump;

// ---------------------------------------------------------------------
// The resolver `pipeline::analyze` replaced: `core::stitch::Stitched`,
// the product's cross-stage index until the pipeline became the only
// road from dumps to a stitched answer. Kept verbatim as the second
// implementation the matrix compares against.
// ---------------------------------------------------------------------

mod legacy_stitched {
    use std::collections::HashMap;
    use whodunit_core::stitch::{walk_origin, RequestEdge, StageDump, StitchError, UnresolvedEdge};

    /// Cross-stage index over a set of [`StageDump`]s.
    #[derive(Debug)]
    pub struct Stitched {
        /// The stage dumps, in the order given. Invalid dumps are retained
        /// (so stage indices stay stable) but excluded from the index; see
        /// [`Stitched::warnings`].
        pub stages: Vec<StageDump>,
        /// Raw synopsis → (stage index, context index) that minted it.
        minted: HashMap<u64, (usize, u32)>,
        /// Per-stage validity (parallel to `stages`).
        valid: Vec<bool>,
        /// Validation failures, by stage index.
        warnings: Vec<(usize, StitchError)>,
    }

    impl Stitched {
        /// Builds the index. Malformed dumps are skipped with a warning
        /// (retrievable via [`Stitched::warnings`]) instead of panicking:
        /// a partial, faulty run must still stitch.
        pub fn new(stages: Vec<StageDump>) -> Self {
            let mut minted = HashMap::new();
            let mut valid = Vec::with_capacity(stages.len());
            let mut warnings = Vec::new();
            for (si, d) in stages.iter().enumerate() {
                match d.validate() {
                    Ok(()) => {
                        valid.push(true);
                        for &(raw, ctx) in &d.synopses {
                            minted.insert(raw, (si, ctx));
                        }
                    }
                    Err(e) => {
                        valid.push(false);
                        warnings.push((si, e));
                    }
                }
            }
            Stitched {
                stages,
                minted,
                valid,
                warnings,
            }
        }

        /// Validation failures of skipped stages: `(stage index, error)`.
        pub fn warnings(&self) -> &[(usize, StitchError)] {
            &self.warnings
        }

        /// Whether stage `si` passed validation and is part of the index.
        pub fn stage_valid(&self, si: usize) -> bool {
            self.valid.get(si).copied().unwrap_or(false)
        }

        /// Resolves a raw synopsis to the (stage, context) that minted it.
        pub fn resolve(&self, raw: u64) -> Option<(usize, u32)> {
            self.minted.get(&raw).copied()
        }

        /// Follows remote chains from `(stage, ctx)` back to the
        /// originating stage's context (the transaction's entry point).
        ///
        /// A context whose first atom is `Remote(chain)` originated at the
        /// stage that minted the *first* synopsis of the chain.
        pub fn origin(&self, stage: usize, ctx: u32) -> (usize, u32) {
            let context = |(s, c): (usize, u32)| self.stages.get(s)?.contexts.get(c as usize);
            walk_origin(context, |raw| self.resolve(raw), (stage, ctx)).unwrap_or_else(|u| u.at)
        }

        /// All request edges: for every remote context, the send point that
        /// produced the *last* synopsis in its chain (the immediate sender).
        pub fn request_edges(&self) -> Vec<RequestEdge> {
            let mut edges = Vec::new();
            for (si, d) in self.stages.iter().enumerate() {
                if !self.stage_valid(si) {
                    continue;
                }
                for (ci, c) in d.contexts.iter().enumerate() {
                    let Some(&last) = c.remote_chain().and_then(|chain| chain.last()) else {
                        continue;
                    };
                    if let Some((fs, fc)) = self.resolve(last) {
                        edges.push(RequestEdge {
                            from_stage: fs,
                            from_ctx: fc,
                            to_stage: si,
                            to_ctx: ci as u32,
                        });
                    }
                }
            }
            edges.sort_by_key(|e| (e.to_stage, e.to_ctx, e.from_stage, e.from_ctx));
            edges
        }

        /// The complement of [`Stitched::request_edges`]: remote contexts
        /// whose immediate sender is *not* in the index — its stage's dump
        /// was never collected (crash), was corrupt (skipped with a
        /// warning), or its dictionary entry was pruned. These are rendered
        /// explicitly so a partial profile is visibly partial rather than
        /// silently smaller.
        pub fn unresolved_edges(&self) -> Vec<UnresolvedEdge> {
            let mut edges = Vec::new();
            for (si, d) in self.stages.iter().enumerate() {
                if !self.stage_valid(si) {
                    continue;
                }
                for (ci, c) in d.contexts.iter().enumerate() {
                    let Some(&last) = c.remote_chain().and_then(|chain| chain.last()) else {
                        continue;
                    };
                    if self.resolve(last).is_none() {
                        edges.push(UnresolvedEdge {
                            to_stage: si,
                            to_ctx: ci as u32,
                            missing: last,
                        });
                    }
                }
            }
            edges.sort_by_key(|e| (e.to_stage, e.to_ctx, e.missing));
            edges
        }
    }
}

/// Cross-validates a pipeline report against the legacy analysis:
/// `Stitched` edges, and the dump JSON, both texts and the fingerprint
/// of the read-side oracle.
fn assert_matches_legacy(dumps: &[StageDump], rep: &whodunit_core::pipeline::PipelineReport, what: &str) {
    let st = Stitched::new(dumps.to_vec());
    assert_eq!(rep.edges, st.request_edges(), "request edges vs legacy: {what}");
    assert_eq!(
        rep.unresolved,
        st.unresolved_edges(),
        "unresolved edges vs legacy: {what}"
    );
    assert_eq!(
        rep.warnings.len(),
        st.warnings().len(),
        "warnings vs legacy: {what}"
    );
    assert_eq!(
        rep.dumps_json,
        read_oracle::to_json(dumps),
        "dump JSON vs the oracle's writer: {what}"
    );
    assert_eq!(
        rep.stitched_text(),
        read_oracle::stitched_text(rep),
        "stitched text vs the oracle: {what}"
    );
    assert_eq!(
        rep.crosstalk_text(),
        read_oracle::crosstalk_text(rep),
        "crosstalk text vs the oracle: {what}"
    );
    assert_eq!(
        rep.fingerprint(),
        read_oracle::fingerprint(rep),
        "fingerprint vs the oracle: {what}"
    );
    // Every CCT's origin agrees with the legacy walk: the profile the
    // pipeline filed it under exists and records this stage.
    for (si, d) in rep.stages.iter().enumerate() {
        if st.warnings().iter().any(|(wi, _)| *wi == si) {
            continue;
        }
        for c in &d.ccts {
            let legacy = st.origin(si, c.ctx);
            let p = rep
                .profiles
                .iter()
                .find(|p| p.origin == legacy)
                .unwrap_or_else(|| panic!("no profile for legacy origin {legacy:?}: {what}"));
            assert!(
                p.stages.contains(&si),
                "profile {legacy:?} missing stage {si}: {what}"
            );
        }
    }
}

fn run_matrix(faulty: bool) {
    let mut scenarios = 0;
    for &seed in &SEEDS {
        for sched in schedules(seed) {
            scenarios += 1;
            let what = format!("seed={seed} sched={sched:?} faulty={faulty}");
            let dumps = scenario_dumps(seed, sched, faulty);
            let rep = analyze(dumps.clone(), PipelineConfig::default());
            assert_matches_legacy(&dumps, &rep, &what);
            assert!(
                !rep.profiles.is_empty(),
                "scenario produced no profiles (vacuous): {what}"
            );
        }
    }
    assert_eq!(scenarios, 18);
}

#[test]
fn clean_runs_match_the_legacy_analysis() {
    run_matrix(false);
}

#[test]
fn faulty_runs_match_the_legacy_analysis() {
    run_matrix(true);
}

#[test]
fn faulty_runs_exercise_unresolved_and_warning_paths() {
    // At least one faulty scenario should drop messages; stitching must
    // still succeed and match the legacy analysis (checked above). Here
    // we assert the faulty matrix is not vacuously identical to clean.
    let mut any_faults_seen = false;
    for &seed in &SEEDS {
        let report = run_tpcw(matrix::scenario_cfg(
            seed,
            whodunit_sim::sched::SchedulePolicy::Fifo,
            true,
        ));
        if report.tail.dropped_msgs + report.tail.delayed_msgs + report.tail.duplicated_msgs > 0 {
            any_faults_seen = true;
            break;
        }
    }
    assert!(any_faults_seen, "fault plans never fired; faulty diff is vacuous");
}

// ---------------------------------------------------------------------
// Writer byte-identity: the sink writers must emit the exact bytes of
// the read side they replaced (`read_oracle`), over the full
// 36-scenario dump corpus.
// ---------------------------------------------------------------------

#[test]
fn serializer_is_byte_identical_to_the_oracle_over_corpus() {
    let mut scenarios = 0;
    for &seed in &SEEDS {
        for sched in schedules(seed) {
            for faulty in [false, true] {
                scenarios += 1;
                let what = format!("seed={seed} sched={sched:?} faulty={faulty}");
                let dumps = scenario_dumps(seed, sched, faulty);
                assert_eq!(
                    dumpjson::to_json(&dumps),
                    read_oracle::to_json(&dumps),
                    "to_json diverged: {what}"
                );
                for (i, d) in dumps.iter().enumerate() {
                    assert_eq!(
                        dumpjson::dump_to_json(d),
                        read_oracle::dump_to_json(d),
                        "dump_to_json diverged: {what} stage={i}"
                    );
                }
            }
        }
    }
    assert_eq!(scenarios, 36);
}
