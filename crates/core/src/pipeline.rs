//! The post-collection analysis pipeline: the one road from stage
//! dumps to a stitched answer.
//!
//! Post-mortem analysis — validating stage dumps, indexing minted
//! synopses, resolving origins and request edges, folding per-stage
//! CCTs into per-transaction profiles, aggregating crosstalk, and
//! re-serializing the dumps — runs as six named phases on the calling
//! thread, each one loop. Every reader of a stitched profile (the
//! report crate's renderers and Table 1 assembly, `whodunit-view`, the
//! invariant oracle, the experiment binaries) reads the
//! [`PipelineReport`] this returns. The report is a pure function of
//! the input dumps because every scan and fold order is pinned down:
//!
//! 1. Stages are visited in input order and a stage's contexts, CCTs
//!    and crosstalk rows in dump order, so duplicate-synopsis
//!    last-insert-wins, CCT fold order and dictionary interning order
//!    never depend on anything but the input.
//! 2. Keyed output (profiles, the crosstalk matrix, edges) is emitted
//!    in ascending key order — accumulated in a `BTreeMap` or sorted
//!    before it is returned, never in hash-iteration order.
//! 3. One dictionary mints dense ids in first-occurrence order over
//!    the (stage, cct) scan: an origin's context value interns at its
//!    first CCT, and the id is printed with every profile.
//!
//! The pipeline is single-threaded on measurement (DESIGN.md §14). The
//! differential suite (`crates/core/tests/parallel_diff.rs`) holds it
//! to the resolver it replaced — kept in that suite as the oracle —
//! and the serial dump serializer over seeds × schedules × fault
//! plans. The streaming collector's `finalize` is this function over
//! the dumps it accumulated, and its suites hold every live snapshot
//! to this function over the same prefix of the stream; DESIGN.md §9
//! records the invariants a future contributor must preserve.

use crate::cct::Cct;
use crate::context::{ContextTable, CtxId};
use crate::crosstalk::{CrosstalkMatrix, OriginKey, WaitStats};
use crate::dumpjson;
use crate::frame::FrameId;
use crate::stitch::{
    fold_dump_nodes, global_frames, global_value, walk_origin, RequestEdge, StageDump,
    StitchError, UnresolvedEdge,
};
use crate::synopsis::Synopsis;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Pipeline sizing.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Reserved and unread: [`analyze`] runs on the calling thread
    /// whatever this says (DESIGN.md §14). The field survives only
    /// because `benchmark/`'s `batch_config` names it in a struct
    /// literal and product PRs may not edit `benchmark/`; ROADMAP
    /// item 7 drops that literal, then this field. Build configs with
    /// `..Default::default()`.
    pub workers: usize,
    /// Reserved and unread: the context dictionary is one
    /// [`ContextTable`] whatever this says. Kept, like `workers`, only
    /// for `benchmark/`'s `batch_config`; ROADMAP item 7 drops it.
    pub shards: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            workers: 1,
            shards: 32,
        }
    }
}

/// Wall time of one phase.
#[derive(Clone, Debug)]
pub struct PhaseTiming {
    /// Phase name (stable across runs; `benchmark/` keys its
    /// per-phase layer rows on it).
    pub phase: &'static str,
    /// Measured wall time of the phase, in nanoseconds. Hardware- and
    /// load-dependent; NOT part of the deterministic output.
    pub wall_ns: u64,
}

/// One stitched per-transaction profile: every stage's CCT work that
/// the origin walk attributed to the same entry-point context, merged
/// over the global frame table.
#[derive(Clone, Debug)]
pub struct OriginProfile {
    /// `(stage index, context index)` of the transaction's entry point.
    pub origin: OriginKey,
    /// The origin's context value in the global dictionary
    /// ([`PipelineReport::dict`]).
    pub global_ctx: CtxId,
    /// Stages that contributed CCT mass, ascending.
    pub stages: Vec<usize>,
    /// The merged CCT, over global frame ids
    /// ([`PipelineReport::frames`]).
    pub cct: Cct,
}

/// Everything the pipeline produces. All fields except [`timings`] are
/// a pure function of the input dumps.
///
/// [`timings`]: PipelineReport::timings
#[derive(Debug)]
pub struct PipelineReport {
    /// The input dumps, order preserved.
    pub stages: Vec<StageDump>,
    /// Global frame names, sorted; CCTs in [`profiles`] index these.
    ///
    /// [`profiles`]: PipelineReport::profiles
    pub frames: Vec<String>,
    /// Stages skipped as invalid, with why; ascending by stage index.
    pub warnings: Vec<(usize, StitchError)>,
    /// Resolved request edges: for every remote context of a valid
    /// stage, the send point that minted the *last* synopsis of its
    /// chain (the immediate sender). Sorted by `(to_stage, to_ctx)`,
    /// which is unique — [`PipelineReport::sender`] searches on it.
    pub edges: Vec<RequestEdge>,
    /// The complement of [`edges`]: remote contexts whose immediate
    /// sender is not in the index — its stage's dump was never
    /// collected, was skipped as invalid, or had pruned the dictionary
    /// entry. Sorted by `(to_stage, to_ctx)`.
    ///
    /// [`edges`]: PipelineReport::edges
    pub unresolved: Vec<UnresolvedEdge>,
    /// Per-transaction profiles, sorted by origin key.
    pub profiles: Vec<OriginProfile>,
    /// Cross-stage crosstalk between origin transactions.
    pub matrix: CrosstalkMatrix,
    /// The global context dictionary the profiles intern into.
    pub dict: ContextTable,
    /// The dumps re-serialized; byte-identical to
    /// [`crate::dumpjson::to_json`] on the same dumps.
    pub dumps_json: String,
    /// Per-phase wall times. The only non-deterministic field;
    /// excluded from [`PipelineReport::fingerprint`].
    pub timings: Vec<PhaseTiming>,
}

/// Runs every phase of the analysis over `dumps`.
pub fn analyze(dumps: Vec<StageDump>, _cfg: PipelineConfig) -> PipelineReport {
    let stages = &dumps;
    let mut timings = Vec::new();

    // Global frame table plus per-stage local→global index maps: a
    // cheap prefix every later phase reads.
    let (frames, remap) = global_frames(stages);

    // Phase: validate. Per stage, check indices and every CCT node's
    // link to a preceding parent.
    let warnings: Vec<(usize, StitchError)> = timed_phase(&mut timings, "validate", || {
        let check = |(si, d): (usize, &StageDump)| Some((si, d.validate().err()?));
        stages.iter().enumerate().filter_map(check).collect()
    });
    let mut valid = vec![true; stages.len()];
    for (si, _) in &warnings {
        valid[*si] = false;
    }
    // Every later phase scans the valid stages only, in input order.
    let valid_stages = || stages.iter().enumerate().filter(|&(si, _)| valid[si]);

    // Phase: index. The minted-synopsis index, built in one stage-order
    // scan so a duplicate mint resolves last-insert-wins.
    let index: HashMap<u64, (usize, u32)> = timed_phase(&mut timings, "index", || {
        let mut map = HashMap::new();
        for (si, d) in valid_stages() {
            for &(raw, ctx) in &d.synopses {
                map.insert(raw, (si, ctx));
            }
        }
        map
    });
    let resolve = |raw: u64| -> Option<(usize, u32)> { index.get(&raw).copied() };

    // Phase: stitch. Per stage, resolve every context's origin and
    // classify remote contexts into request/unresolved edges.
    let mut edges: Vec<RequestEdge> = Vec::new();
    let mut unresolved: Vec<UnresolvedEdge> = Vec::new();
    let origins: Vec<Vec<OriginKey>> = timed_phase(&mut timings, "stitch", || {
        let context = |(s, c): (usize, u32)| stages.get(s)?.contexts.get(c as usize);
        let mut origins = vec![Vec::new(); stages.len()];
        for (si, d) in valid_stages() {
            for (ci, c) in d.contexts.iter().enumerate() {
                let ci = ci as u32;
                // The index is complete: an unresolvable head settles.
                origins[si].push(walk_origin(context, resolve, (si, ci)).unwrap_or_else(|u| u.at));
                let Some(&last) = c.remote_chain().and_then(|chain| chain.last()) else {
                    continue;
                };
                match resolve(last) {
                    Some((fs, fc)) => edges.push(RequestEdge {
                        from_stage: fs,
                        from_ctx: fc,
                        to_stage: si,
                        to_ctx: ci,
                    }),
                    None => unresolved.push(UnresolvedEdge {
                        to_stage: si,
                        to_ctx: ci,
                        missing: last,
                    }),
                }
            }
        }
        origins
    });
    edges.sort_by_key(|e| (e.to_stage, e.to_ctx, e.from_stage, e.from_ctx));
    unresolved.sort_by_key(|e| (e.to_stage, e.to_ctx, e.missing));
    // A context index a crosstalk row made up has no walk: it stands
    // for itself.
    let origin_of = |si: usize, ctx: u32| -> OriginKey {
        origins[si].get(ctx as usize).copied().unwrap_or((si, ctx))
    };

    // Phase: profiles. One scan in (stage, cct) order — which fixes
    // each origin's fold order and the dictionary's interning order —
    // folding every dumped CCT over global frame ids into its origin's
    // profile and interning the origin's value at its first occurrence.
    let (dict, profiles) = timed_phase(&mut timings, "profiles", || {
        let mut dict = ContextTable::default();
        let mut acc: BTreeMap<OriginKey, OriginProfile> = BTreeMap::new();
        let mut node_map = Vec::new();
        for (si, d) in valid_stages() {
            let gf = |f: u32| FrameId(remap[si].get(f as usize).copied().unwrap_or(u32::MAX));
            for c in &d.ccts {
                let origin = origin_of(si, c.ctx);
                let p = acc.entry(origin).or_insert_with(|| OriginProfile {
                    origin,
                    global_ctx: dict.intern(global_value(stages, &remap, origin)),
                    stages: Vec::new(),
                    cct: Cct::new(),
                });
                if p.stages.last() != Some(&si) {
                    p.stages.push(si);
                }
                node_map.clear();
                fold_dump_nodes(&mut p.cct, &mut node_map, &c.nodes, gf).expect("validated dump");
            }
        }
        (dict, acc.into_values().collect::<Vec<_>>())
    });

    // Phase: crosstalk-reduce. Resolve each recorded pair and waiter
    // to its origins and accumulate per key; the `BTreeMap`s hand the
    // matrix back in ascending key order.
    let matrix = timed_phase(&mut timings, "crosstalk-reduce", || {
        let mut pairs: BTreeMap<(OriginKey, OriginKey), WaitStats> = BTreeMap::new();
        let mut waiters: BTreeMap<OriginKey, WaitStats> = BTreeMap::new();
        for (si, d) in valid_stages() {
            for p in &d.crosstalk_pairs {
                let key = (origin_of(si, p.waiter), origin_of(si, p.holder));
                let e = pairs.entry(key).or_default();
                e.count += p.count;
                e.total_wait += p.total_wait;
            }
            for w in &d.crosstalk_waiters {
                let e = waiters.entry(origin_of(si, w.waiter)).or_default();
                e.count += w.count;
                e.total_wait += w.total_wait;
            }
        }
        CrosstalkMatrix {
            pairs: pairs.into_iter().map(|((w, h), s)| (w, h, s)).collect(),
            waiters: waiters.into_iter().collect(),
        }
    });

    // Phase: serialize.
    let dumps_json = timed_phase(&mut timings, "serialize", || dumpjson::to_json(stages));

    PipelineReport {
        stages: dumps,
        frames,
        warnings,
        edges,
        unresolved,
        profiles,
        matrix,
        dict,
        dumps_json,
        timings,
    }
}

/// Runs one phase and records its wall time under `phase`. Timing can
/// influence only the diagnostic `wall_ns`, never the results.
fn timed_phase<T>(timings: &mut Vec<PhaseTiming>, phase: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    timings.push(PhaseTiming {
        phase,
        wall_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
    });
    out
}

impl PipelineReport {
    /// Whether stage `si` passed validation and is part of the index.
    pub fn stage_valid(&self, si: usize) -> bool {
        si < self.stages.len() && self.warnings.binary_search_by_key(&si, |w| w.0).is_err()
    }

    /// The send point `(stage, ctx)` that the remote context `ctx` of
    /// `stage` came from: the `from` end of its request edge. `None`
    /// for a local context, an unresolved sender, a stage skipped as
    /// invalid, or an index out of range.
    pub fn sender(&self, stage: usize, ctx: u32) -> Option<(usize, u32)> {
        let to = |e: &RequestEdge| (e.to_stage, e.to_ctx);
        let i = self.edges.binary_search_by_key(&(stage, ctx), to).ok()?;
        Some((self.edges[i].from_stage, self.edges[i].from_ctx))
    }

    /// Renders the stitched per-transaction profiles, request edges,
    /// unresolved edges, and warnings as deterministic text — the
    /// byte-comparison surface of the differential suite.
    pub fn stitched_text(&self) -> String {
        use crate::txt::push_usize;
        use std::fmt::Write as _;
        let mut out = String::new();
        for p in &self.profiles {
            let (os, oc) = p.origin;
            out.push_str("origin ");
            self.push_origin_label(&mut out, os, oc);
            out.push_str(" [");
            let _ = write!(out, "{}", p.global_ctx);
            // `stages` keeps the `{:?}` rendering of a Vec<usize>:
            // "[0, 1, 2]".
            out.push_str("] stages=[");
            for (i, &si) in p.stages.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_usize(&mut out, si);
            }
            out.push_str("]\n");
            self.render_cct(&mut out, &p.cct);
        }
        out.push_str("request edges:\n");
        for e in &self.edges {
            out.push_str("  ");
            self.push_origin_label(&mut out, e.from_stage, e.from_ctx);
            out.push_str("  ==>  ");
            self.push_origin_label(&mut out, e.to_stage, e.to_ctx);
            out.push('\n');
        }
        if !self.unresolved.is_empty() {
            out.push_str("unresolved edges:\n");
            for e in &self.unresolved {
                out.push_str("  ???[");
                let _ = write!(out, "{}", Synopsis(e.missing));
                out.push_str("]  ==>  ");
                self.push_origin_label(&mut out, e.to_stage, e.to_ctx);
                out.push('\n');
            }
        }
        for (si, err) in &self.warnings {
            out.push_str("warning: stage ");
            push_usize(&mut out, *si);
            out.push_str(" (");
            out.push_str(&self.stages[*si].stage_name);
            let _ = write!(out, ") skipped: {err}");
            out.push('\n');
        }
        out
    }

    /// Renders the crosstalk matrix as deterministic text.
    pub fn crosstalk_text(&self) -> String {
        self.matrix.render(&|s, c| self.origin_label(s, c))
    }

    /// `stage_name:context` label for an origin key.
    pub fn origin_label(&self, stage: usize, ctx: u32) -> String {
        let mut out = String::new();
        self.push_origin_label(&mut out, stage, ctx);
        out
    }

    /// [`Self::origin_label`] appending into a caller-supplied buffer.
    fn push_origin_label(&self, out: &mut String, stage: usize, ctx: u32) {
        match self.stages.get(stage) {
            Some(d) => {
                out.push_str(&d.stage_name);
                out.push(':');
                out.push_str(&d.ctx_string(ctx));
            }
            None => {
                out.push_str("<stage ");
                crate::txt::push_usize(out, stage);
                out.push_str("?>:");
                crate::txt::push_u32(out, ctx);
            }
        }
    }

    /// One line per framed node, indented two spaces per level (the
    /// root sits at level 1 and prints nothing), with its inclusive
    /// samples and cycles.
    fn render_cct(&self, out: &mut String, cct: &Cct) {
        let inc = cct.inclusive_all();
        cct.visit_sorted(|node, depth| {
            let Some(f) = cct.frame(node) else {
                return;
            };
            let name = self
                .frames
                .get(f.0 as usize)
                .map(String::as_str)
                .unwrap_or("<?>");
            let m = inc[node.0 as usize];
            for _ in 0..=depth {
                out.push_str("  ");
            }
            out.push_str(name);
            out.push_str(" samples ");
            crate::txt::push_u64(out, m.samples);
            out.push_str(" cycles ");
            crate::txt::push_u64(out, m.cycles);
            out.push('\n');
        });
    }

    /// FNV-1a fingerprint over the deterministic outputs (stitched
    /// text, crosstalk text, dump JSON). Equal fingerprints between
    /// batch, collector and federation is the differential suites'
    /// divergence gate.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::hash::Fnv64::new();
        h.write(self.stitched_text().as_bytes());
        h.write(self.crosstalk_text().as_bytes());
        h.write(self.dumps_json.as_bytes());
        h.finish()
    }
}

/// Replicates a profiled tier group into a fleet of `replicas` copies
/// with disjoint process ids: replica `r`'s copy of `dumps[i]` gets
/// process id `r * dumps.len() + i`, applied consistently to minted
/// synopses and remote chains via
/// [`StageDump::with_remapped_proc`]. This turns one small run into a
/// deterministic fleet-sized analysis workload (`benchmark/` replicates
/// 1,536 stages this way). Process ids are full `u32`s inside the
/// 64-bit synopsis, so the fleet is not bounded by the classic 8-bit
/// process-id byte; only a synopsis *counter* is held to 24 bits
/// (`Synopsis::new`), and remapping never changes a counter.
pub fn replicate_fleet(dumps: &[StageDump], replicas: usize) -> Vec<StageDump> {
    let g = dumps.len();
    let proc_index: HashMap<u32, usize> = dumps
        .iter()
        .enumerate()
        .map(|(i, d)| (d.proc, i))
        .collect();
    let mut fleet = Vec::with_capacity(g * replicas);
    for r in 0..replicas {
        for d in dumps {
            let map = |p: u32| proc_index.get(&p).map(|&i| (r * g + i) as u32);
            fleet.push(d.with_remapped_proc(&map));
        }
    }
    fleet
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stitch::{
        DumpAtom, DumpCct, DumpContext, DumpCrosstalkPair, DumpCrosstalkWaiter, DumpNode,
    };

    fn node(frame: Option<u32>, parent: Option<u32>, samples: u64, cycles: u64) -> DumpNode {
        DumpNode {
            frame,
            parent,
            samples,
            cycles,
            calls: 0,
        }
    }

    /// A 3-stage chain: stage 0 sends (mints 0x...64), stage 1 receives
    /// and forwards (mints its own), stage 2 receives. Stage 2 records
    /// crosstalk between its two contexts.
    fn chain_dumps() -> Vec<StageDump> {
        let s0 = StageDump {
            proc: 0,
            stage_name: "front".into(),
            frames: vec!["main".into(), "rpc".into()],
            contexts: vec![
                DumpContext::default(),
                DumpContext {
                    atoms: vec![DumpAtom::Path(vec![0, 1])],
                },
            ],
            ccts: vec![DumpCct {
                ctx: 1,
                nodes: vec![node(None, None, 0, 0), node(Some(0), Some(0), 5, 50)],
            }],
            synopses: vec![(Synopsis::new(0, 0).0, 1)],
            ..Default::default()
        };
        let s1 = StageDump {
            proc: 1,
            stage_name: "mid".into(),
            frames: vec!["serve".into()],
            contexts: vec![
                DumpContext::default(),
                DumpContext {
                    atoms: vec![DumpAtom::Remote(vec![Synopsis::new(0, 0).0])],
                },
            ],
            ccts: vec![DumpCct {
                ctx: 1,
                nodes: vec![node(None, None, 0, 0), node(Some(0), Some(0), 7, 70)],
            }],
            synopses: vec![(Synopsis::new(1, 0).0, 1)],
            ..Default::default()
        };
        let s2 = StageDump {
            proc: 2,
            stage_name: "db".into(),
            frames: vec!["query".into(), "lock".into()],
            contexts: vec![
                DumpContext::default(),
                DumpContext {
                    atoms: vec![DumpAtom::Remote(vec![
                        Synopsis::new(0, 0).0,
                        Synopsis::new(1, 0).0,
                    ])],
                },
            ],
            ccts: vec![DumpCct {
                ctx: 1,
                nodes: vec![
                    node(None, None, 0, 0),
                    node(Some(0), Some(0), 3, 30),
                    node(Some(1), Some(1), 2, 20),
                ],
            }],
            synopses: vec![],
            crosstalk_pairs: vec![DumpCrosstalkPair {
                waiter: 1,
                holder: 0,
                count: 4,
                total_wait: 400,
            }],
            crosstalk_waiters: vec![DumpCrosstalkWaiter {
                waiter: 1,
                count: 9,
                total_wait: 400,
            }],
            ..Default::default()
        };
        vec![s0, s1, s2]
    }

    #[test]
    fn request_edges_point_at_immediate_sender() {
        let rep = analyze(chain_dumps(), PipelineConfig::default());
        // mid's remote ctx came from front; db's from mid, the minter
        // of its chain's *last* synopsis.
        assert_eq!(rep.edges, vec![
            RequestEdge {
                from_stage: 0,
                from_ctx: 1,
                to_stage: 1,
                to_ctx: 1
            },
            RequestEdge {
                from_stage: 1,
                from_ctx: 1,
                to_stage: 2,
                to_ctx: 1
            },
        ]);
        assert!(rep.unresolved.is_empty());
        assert!(rep.warnings.is_empty());
    }

    #[test]
    fn missing_stage_dump_yields_unresolved_edges() {
        // mid's dump was lost (crashed before dumping): db's remote
        // chain ends in a synopsis nobody minted.
        let mut dumps = chain_dumps();
        dumps.remove(1);
        let rep = analyze(dumps, PipelineConfig::default());
        assert!(rep.edges.is_empty());
        assert_eq!(rep.unresolved, vec![UnresolvedEdge {
            to_stage: 1,
            to_ctx: 1,
            missing: Synopsis::new(1, 0).0
        }]);
        // The origin walk still finds the true entry stage via the
        // chain head, which front did mint.
        assert_eq!(rep.profiles.len(), 1);
        assert_eq!(rep.profiles[0].origin, (0, 1));
        assert_eq!(rep.profiles[0].stages, vec![0, 1]);
    }

    #[test]
    fn sender_reads_the_request_edges() {
        let mut dumps = chain_dumps();
        // A second remote context at db whose sender nobody minted.
        dumps[2].contexts.push(DumpContext {
            atoms: vec![DumpAtom::Remote(vec![Synopsis::new(7, 7).0])],
        });
        let rep = analyze(dumps, PipelineConfig::default());
        assert_eq!(rep.sender(2, 1), Some((1, 1)));
        assert_eq!(rep.sender(1, 1), Some((0, 1)));
        assert_eq!(rep.sender(0, 1), None, "local context");
        assert_eq!(rep.sender(2, 0), None, "root context");
        assert_eq!(rep.unresolved.len(), 1);
        assert_eq!(rep.sender(2, 2), None, "unresolved sender");
        assert_eq!(rep.sender(2, 99), None, "context out of range");
        assert_eq!(rep.sender(99, 1), None, "stage out of range");
    }

    #[test]
    fn json_matches_serial_serializer() {
        let dumps = chain_dumps();
        let want = dumpjson::to_json(&dumps);
        let rep = analyze(dumps, PipelineConfig::default());
        assert_eq!(rep.dumps_json, want);
        let back = dumpjson::from_json(&rep.dumps_json).expect("round trip");
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn profiles_merge_all_stages_under_the_origin() {
        let rep = analyze(chain_dumps(), PipelineConfig::default());
        // Every stage's CCT resolves to the front-tier entry point.
        assert_eq!(rep.profiles.len(), 1);
        let p = &rep.profiles[0];
        assert_eq!(p.origin, (0, 1));
        assert_eq!(p.stages, vec![0, 1, 2]);
        assert_eq!(p.cct.total().cycles, 50 + 70 + 30 + 20);
        // The origin's value is interned in the dictionary.
        assert_eq!(rep.dict.value(p.global_ctx).len(), 1);
    }

    #[test]
    fn crosstalk_resolves_to_origins() {
        let rep = analyze(chain_dumps(), PipelineConfig::default());
        // db ctx1's origin is (0,1); db ctx0 is local root (2,0).
        assert_eq!(rep.matrix.pairs, vec![(
            (0, 1),
            (2, 0),
            WaitStats {
                count: 4,
                total_wait: 400
            }
        )]);
        assert_eq!(rep.matrix.waiters.len(), 1);
        assert_eq!(rep.matrix.waiters[0].0, (0, 1));
    }

    #[test]
    fn corrupt_stage_is_skipped_with_a_warning() {
        let mut dumps = chain_dumps();
        dumps[1].ccts[0].ctx = 99; // context out of range → invalid
        let rep = analyze(dumps, PipelineConfig::default());
        assert_eq!(rep.warnings, vec![(1, StitchError::ContextOutOfRange { ctx: 99 })]);
        assert!(rep.stage_valid(0));
        assert!(!rep.stage_valid(1));
        assert!(rep.stage_valid(2));
        assert!(!rep.stage_valid(3), "out of range");
        // The skipped stage's mint is unindexed, so the db tier's edge
        // is unresolved; its own remote context is not scanned at all.
        assert!(rep.edges.is_empty());
        assert_eq!(rep.unresolved, vec![UnresolvedEdge {
            to_stage: 2,
            to_ctx: 1,
            missing: Synopsis::new(1, 0).0
        }]);
        // front's mint is indexed: db's work still files under it.
        assert_eq!(rep.profiles.len(), 1);
        assert_eq!(rep.profiles[0].stages, vec![0, 2]);
    }

    #[test]
    fn fleet_replication_is_consistent_and_analyzable() {
        let fleet = replicate_fleet(&chain_dumps(), 5);
        assert_eq!(fleet.len(), 15);
        let procs: std::collections::BTreeSet<u32> = fleet.iter().map(|d| d.proc).collect();
        assert_eq!(procs.len(), 15, "disjoint proc ids");
        let rep = analyze(fleet, PipelineConfig::default());
        // One profile per replica origin, all resolved (no unresolved
        // edges introduced by remapping).
        assert_eq!(rep.profiles.len(), 5);
        assert!(rep.unresolved.is_empty());
        assert_eq!(rep.edges.len(), 10);
    }
}
