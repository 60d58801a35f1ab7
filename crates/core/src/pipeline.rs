//! The parallel post-collection analysis pipeline.
//!
//! Post-mortem analysis — validating stage dumps, indexing minted
//! synopses, resolving origins and request edges, merging per-stage
//! CCTs into per-transaction profiles, aggregating crosstalk, and
//! re-serializing the dumps — is embarrassingly parallel *if* the
//! merge order is pinned down. This module runs those phases across a
//! deterministic fixed-size worker pool and guarantees the result is
//! **bit-identical for every worker count**, by construction:
//!
//! 1. Work is partitioned into a *fixed* number of items (stages, or
//!    dictionary shards chosen by location hash) that does not depend
//!    on the worker count.
//! 2. Each item's result is a pure function of the input dumps.
//! 3. Per-item results land in per-item slots and are merged in
//!    ascending item order — never in completion order.
//!
//! `workers == 1` *is* the serial path: the same item functions run on
//! the calling thread in the same item order. Parallel counts execute
//! on real scoped OS threads with seeded work stealing via
//! [`crate::exec::run`]; [`analyze_with`] additionally accepts a
//! [`StealPlan`] so the stress harness can perturb steal order and
//! inject deterministic shard panics. The differential suites
//! (`crates/core/tests/parallel_diff.rs`, `thread_stress.rs`) hold all
//! paths to byte equality over seeds × schedules × fault plans ×
//! worker counts, and DESIGN.md §9/§14 record the invariants a future
//! contributor must preserve.

use crate::cct::{Cct, CctNodeId};
use crate::exec::{self, ShardPanic, StealPlan};
use crate::context::{ContextShard, ShardedContextTable, ShardedCtxId, TransactionContext};
use crate::crosstalk::{CrosstalkMatrix, OriginKey, WaitStats};
use crate::dumpjson;
use crate::frame::FrameId;
use crate::stitch::{
    fold_dump_nodes, global_frames, global_value, walk_origin, RequestEdge, StageDump,
    StitchError, UnresolvedEdge,
};
use crate::synopsis::Synopsis;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

/// Pipeline sizing.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Worker threads. `1` runs every phase on the calling thread (the
    /// serial reference path); larger counts only change *who* computes
    /// each item, never the result.
    pub workers: usize,
    /// Dictionary shard count. Fixed independently of `workers` — this
    /// is what makes output worker-count-invariant — and sized so shard
    /// work stays balanced (default 32).
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

impl PipelineConfig {
    /// A config with `workers` workers and default shard count.
    pub fn with_workers(workers: usize) -> Self {
        PipelineConfig {
            workers: workers.max(1),
            ..Default::default()
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
    /// The origin's context value in the sharded global dictionary.
    pub global_ctx: ShardedCtxId,
    /// Stages that contributed CCT mass, ascending.
    pub stages: Vec<usize>,
    /// The merged CCT, over global frame ids
    /// ([`PipelineReport::frames`]).
    pub cct: Cct,
}

/// Everything the pipeline produces. All fields except [`timings`] are
/// bit-identical across worker counts.
///
/// [`timings`]: PipelineReport::timings
#[derive(Debug)]
pub struct PipelineReport {
    /// Workers the run used.
    pub workers: usize,
    /// Dictionary shard count the run used.
    pub shards: usize,
    /// The input dumps, order preserved.
    pub stages: Vec<StageDump>,
    /// Global frame names, sorted; CCTs in [`profiles`] index these.
    ///
    /// [`profiles`]: PipelineReport::profiles
    pub frames: Vec<String>,
    /// Stages skipped as invalid, with why.
    pub warnings: Vec<(usize, StitchError)>,
    /// Resolved request edges, sorted as
    /// [`crate::stitch::Stitched::request_edges`] sorts them.
    pub edges: Vec<RequestEdge>,
    /// Remote contexts whose sender dump is missing, sorted as
    /// [`crate::stitch::Stitched::unresolved_edges`] sorts them.
    pub unresolved: Vec<UnresolvedEdge>,
    /// Per-transaction profiles, sorted by origin key.
    pub profiles: Vec<OriginProfile>,
    /// Cross-stage crosstalk between origin transactions.
    pub matrix: CrosstalkMatrix,
    /// The sharded global context dictionary the profiles intern into.
    pub dict: ShardedContextTable,
    /// The dumps re-serialized; byte-identical to
    /// [`crate::dumpjson::to_json`] on the same dumps.
    pub dumps_json: String,
    /// Per-phase wall times. The only non-deterministic field;
    /// excluded from [`PipelineReport::fingerprint`].
    pub timings: Vec<PhaseTiming>,
}

/// Runs every phase of the analysis over `dumps` under the canonical
/// schedule, propagating any worker panic (with the executor's clean
/// [`ShardPanic`] message) — the legacy entry point.
pub fn analyze(dumps: Vec<StageDump>, cfg: PipelineConfig) -> PipelineReport {
    match analyze_with(dumps, cfg, StealPlan::CANONICAL) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    }
}

/// Runs every phase of the analysis over `dumps` under a specific
/// steal schedule. The schedule can never change the report — the
/// thread-stress harness sweeps plans to prove it — but a panicking
/// shard (organic, or injected via [`StealPlan::panic_at`]) surfaces
/// here as a clean [`ShardPanic`] instead of a partial report.
pub fn analyze_with(
    dumps: Vec<StageDump>,
    cfg: PipelineConfig,
    plan: StealPlan,
) -> Result<PipelineReport, ShardPanic> {
    let workers = cfg.workers.max(1);
    let shards = cfg.shards.max(1);
    let stages = &dumps;
    let n_stages = stages.len();
    let mut timings = Vec::new();

    // Global frame table plus per-stage local→global index maps.
    // Serial — it is a cheap prefix every later phase reads.
    let (frames, remap) = global_frames(stages);

    // Phase: validate. Per stage, check indices and rebuild every CCT.
    let (validated, t) =
        timed_phase("validate", workers, plan, n_stages, |si| stages[si].validate())?;
    timings.push(t);
    let valid: Vec<bool> = validated.iter().map(|r| r.is_ok()).collect();
    let warnings: Vec<(usize, StitchError)> = validated
        .into_iter()
        .enumerate()
        .filter_map(|(si, r)| r.err().map(|e| (si, e)))
        .collect();

    // Phase: index. The minted-synopsis index, sharded by synopsis
    // hash. Each shard scans all valid stages in order and keeps the
    // entries it owns, so shard contents (and last-insert-wins on
    // duplicates) match the serial stage-order scan exactly.
    let (index, t) = timed_phase("index", workers, plan, shards, |j| {
        let mut map: HashMap<u64, (usize, u32)> = HashMap::new();
        for (si, d) in stages.iter().enumerate() {
            if !valid[si] {
                continue;
            }
            for &(raw, ctx) in &d.synopses {
                if syn_shard(raw, shards) == j {
                    map.insert(raw, (si, ctx));
                }
            }
        }
        map
    })?;
    timings.push(t);
    let resolve = |raw: u64| -> Option<(usize, u32)> {
        index[syn_shard(raw, shards)].get(&raw).copied()
    };

    // Phase: stitch. Per stage, resolve every context's origin and
    // classify remote contexts into request/unresolved edges.
    let (stitched, t) = timed_phase("stitch", workers, plan, n_stages, |si| {
        let mut origins: Vec<OriginKey> = Vec::new();
        let mut edges: Vec<RequestEdge> = Vec::new();
        let mut unresolved: Vec<UnresolvedEdge> = Vec::new();
        if valid[si] {
            let d = &stages[si];
            let context = |(s, c): (usize, u32)| stages.get(s)?.contexts.get(c as usize);
            for (ci, c) in d.contexts.iter().enumerate() {
                let ci = ci as u32;
                // The index is complete: an unresolvable head settles.
                origins.push(walk_origin(context, resolve, (si, ci)).unwrap_or_else(|u| u.at));
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
        (origins, edges, unresolved)
    })?;
    timings.push(t);
    let origins: Vec<Vec<OriginKey>> = stitched.iter().map(|(o, _, _)| o.clone()).collect();
    let mut edges: Vec<RequestEdge> = stitched.iter().flat_map(|(_, e, _)| e.clone()).collect();
    edges.sort_by_key(|e| (e.to_stage, e.to_ctx, e.from_stage, e.from_ctx));
    let mut unresolved: Vec<UnresolvedEdge> =
        stitched.iter().flat_map(|(_, _, u)| u.clone()).collect();
    unresolved.sort_by_key(|e| (e.to_stage, e.to_ctx, e.missing));

    // Phase: annotate. Per stage, rebuild each CCT over global frame
    // ids and tag it with its origin, the origin's global context
    // value, and the dictionary shard that value hashes to.
    let (annotated, t) = timed_phase("annotate", workers, plan, n_stages, |si| {
        let mut anns: Vec<CctAnnotation> = Vec::new();
        if valid[si] {
            let d = &stages[si];
            for c in &d.ccts {
                let origin = origin_of(&origins, si, c.ctx);
                let value = global_value(stages, &remap, origin);
                let dict_shard = (value.stable_hash() % shards as u64) as usize;
                let cct = rebuild_global(&remap[si], c);
                anns.push(CctAnnotation {
                    origin,
                    value,
                    dict_shard,
                    cct,
                });
            }
        }
        anns
    })?;
    timings.push(t);

    // Phase: profiles. Per dictionary shard, merge the CCTs of every
    // annotation the shard owns (scan in (stage, cct) order so merge
    // order is fixed) and intern the origin values into the shard's
    // slice of the global dictionary.
    let (profile_parts, t) = timed_phase("profiles", workers, plan, shards, |j| {
        let mut shard = ContextShard::default();
        let mut acc: BTreeMap<OriginKey, (u32, BTreeSet<usize>, Cct)> = BTreeMap::new();
        for (si, anns) in annotated.iter().enumerate() {
            for a in anns {
                if a.dict_shard != j {
                    continue;
                }
                let e = acc.entry(a.origin).or_insert_with(|| {
                    let local = shard.intern_local(a.value.clone());
                    (local, BTreeSet::new(), Cct::new())
                });
                e.1.insert(si);
                e.2.merge(&a.cct);
            }
        }
        let profiles: Vec<OriginProfile> = acc
            .into_iter()
            .map(|(origin, (local, stages, cct))| OriginProfile {
                origin,
                global_ctx: ShardedCtxId::new(j as u32, local),
                stages: stages.into_iter().collect(),
                cct,
            })
            .collect();
        (shard, profiles)
    })?;
    timings.push(t);
    let mut dict_parts = Vec::new();
    let mut profiles = Vec::new();
    for (j, (shard, mut ps)) in profile_parts.into_iter().enumerate() {
        dict_parts.push((j, shard));
        profiles.append(&mut ps);
    }
    let dict = ShardedContextTable::from_parts(shards, dict_parts);
    profiles.sort_by_key(|p| p.origin);

    // Phase: crosstalk-map. Per stage, resolve each recorded pair and
    // waiter through the origin walk and tag it with the shard its
    // waiter origin hashes to.
    let (ct_maps, t) = timed_phase("crosstalk-map", workers, plan, n_stages, |si| {
        let mut pairs: Vec<(usize, OriginKey, OriginKey, WaitStats)> = Vec::new();
        let mut waiters: Vec<(usize, OriginKey, WaitStats)> = Vec::new();
        if valid[si] {
            let d = &stages[si];
            for p in &d.crosstalk_pairs {
                let w = origin_of(&origins, si, p.waiter);
                let h = origin_of(&origins, si, p.holder);
                pairs.push((
                    origin_shard(w, shards),
                    w,
                    h,
                    WaitStats {
                        count: p.count,
                        total_wait: p.total_wait,
                    },
                ));
            }
            for wt in &d.crosstalk_waiters {
                let w = origin_of(&origins, si, wt.waiter);
                waiters.push((
                    origin_shard(w, shards),
                    w,
                    WaitStats {
                        count: wt.count,
                        total_wait: wt.total_wait,
                    },
                ));
            }
        }
        (pairs, waiters)
    })?;
    timings.push(t);

    // Phase: crosstalk-reduce. Per shard, accumulate the rows the
    // shard owns; keys are disjoint across shards (a waiter origin
    // lives in exactly one), so the final from_parts merge is lossless.
    let (ct_parts, t) = timed_phase("crosstalk-reduce", workers, plan, shards, |j| {
        let mut pair_acc: BTreeMap<(OriginKey, OriginKey), WaitStats> = BTreeMap::new();
        let mut waiter_acc: BTreeMap<OriginKey, WaitStats> = BTreeMap::new();
        for (ps, ws) in &ct_maps {
            for &(shard, w, h, s) in ps {
                if shard != j {
                    continue;
                }
                let e = pair_acc.entry((w, h)).or_default();
                e.count += s.count;
                e.total_wait += s.total_wait;
            }
            for &(shard, w, s) in ws {
                if shard != j {
                    continue;
                }
                let e = waiter_acc.entry(w).or_default();
                e.count += s.count;
                e.total_wait += s.total_wait;
            }
        }
        CrosstalkMatrix {
            pairs: pair_acc.into_iter().map(|((w, h), s)| (w, h, s)).collect(),
            waiters: waiter_acc.into_iter().collect(),
        }
    })?;
    timings.push(t);
    let matrix = CrosstalkMatrix::from_parts(ct_parts);

    // Phase: serialize. Per stage, render the dump's JSON; the serial
    // concatenation below reproduces dumpjson::to_json byte-for-byte
    // because that format is itself a per-dump concatenation.
    let (jsons, t) = timed_phase("serialize", workers, plan, n_stages, |si| {
        dumpjson::dump_to_json(&stages[si])
    })?;
    timings.push(t);
    let mut dumps_json = String::from("[\n");
    for (i, j) in jsons.iter().enumerate() {
        if i > 0 {
            dumps_json.push_str(",\n");
        }
        dumps_json.push_str(j);
    }
    dumps_json.push_str("\n]\n");

    Ok(PipelineReport {
        workers,
        shards,
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
    })
}

struct CctAnnotation {
    origin: OriginKey,
    value: TransactionContext,
    dict_shard: usize,
    cct: Cct,
}

/// The shard a minted synopsis routes to — the pure routing function
/// behind the index phase, exposed so property tests can pin
/// shard-assignment stability under input permutation.
pub fn shard_of_syn(raw: u64, shards: usize) -> usize {
    syn_shard(raw, shards.max(1))
}

/// The dictionary shard an origin key routes to — the pure routing
/// function behind the profiles/crosstalk-reduce phases, exposed for
/// the same property tests as [`shard_of_syn`].
pub fn shard_of_origin(k: OriginKey, shards: usize) -> usize {
    origin_shard(k, shards.max(1))
}

/// FNV-1a over a synopsis value, reduced to a shard index.
fn syn_shard(raw: u64, shards: usize) -> usize {
    (crate::hash::fnv1a(&raw.to_le_bytes()) % shards as u64) as usize
}

/// FNV-1a over an origin key, reduced to a shard index.
fn origin_shard(k: OriginKey, shards: usize) -> usize {
    let mut h = crate::hash::Fnv64::new();
    h.write_u64(k.0 as u64);
    h.write_u64(k.1 as u64);
    (h.finish() % shards as u64) as usize
}

/// The origin computed in the stitch phase for a stage-local context
/// index, with the same out-of-range fallback on both paths.
fn origin_of(origins: &[Vec<OriginKey>], si: usize, ctx: u32) -> OriginKey {
    origins
        .get(si)
        .and_then(|v| v.get(ctx as usize))
        .copied()
        .unwrap_or((si, ctx))
}

/// Rebuilds a dumped CCT over global frame ids.
fn rebuild_global(remap: &[u32], d: &crate::stitch::DumpCct) -> Cct {
    let mut cct = Cct::new();
    let gf = |f: u32| FrameId(remap.get(f as usize).copied().unwrap_or(u32::MAX));
    fold_dump_nodes(&mut cct, &mut Vec::with_capacity(d.nodes.len()), &d.nodes, gf)
        .expect("validated dump");
    cct
}

/// Runs `f` over items `0..n` on real worker threads and returns the
/// results in item order, along with the phase timing.
///
/// Execution goes through [`exec::run`]: per-worker deques seeded by
/// `plan`, work stealing, results slotted by item index. Scheduling
/// can influence only the diagnostic `wall_ns`, never the results. A
/// panicking item aborts the phase and surfaces as a clean
/// [`ShardPanic`] carrying the phase name and item index.
fn timed_phase<T: Send>(
    phase: &'static str,
    workers: usize,
    plan: StealPlan,
    n: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Result<(Vec<T>, PhaseTiming), ShardPanic> {
    let start = Instant::now();
    let (results, _) = exec::run(phase, workers, plan, n, f)?;
    let t = PhaseTiming {
        phase,
        wall_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
    };
    Ok((results, t))
}

impl PipelineReport {
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
            self.render_cct(&mut out, &p.cct, CctNodeId::ROOT, 1);
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

    fn render_cct(&self, out: &mut String, cct: &Cct, node: CctNodeId, depth: usize) {
        if let Some(f) = cct.frame(node) {
            let name = self
                .frames
                .get(f.0 as usize)
                .map(String::as_str)
                .unwrap_or("<?>");
            let m = cct.inclusive(node);
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(name);
            out.push_str(" samples ");
            crate::txt::push_u64(out, m.samples);
            out.push_str(" cycles ");
            crate::txt::push_u64(out, m.cycles);
            out.push('\n');
        }
        for child in cct.children_sorted(node) {
            self.render_cct(out, cct, child, depth + 1);
        }
    }

    /// FNV-1a fingerprint over the deterministic outputs (stitched
    /// text, crosstalk text, dump JSON). Equal fingerprints across
    /// worker counts is the differential suites' divergence gate.
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
        DumpAtom, DumpCct, DumpContext, DumpCrosstalkPair, DumpCrosstalkWaiter, DumpNode, Stitched,
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

    fn assert_identical(a: &PipelineReport, b: &PipelineReport) {
        assert_eq!(a.stitched_text(), b.stitched_text());
        assert_eq!(a.crosstalk_text(), b.crosstalk_text());
        assert_eq!(a.dumps_json, b.dumps_json);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.dict, b.dict);
    }

    #[test]
    fn parallel_output_is_bit_identical_to_serial() {
        for shards in [1, 4, 32] {
            let serial = analyze(
                chain_dumps(),
                PipelineConfig { workers: 1, shards },
            );
            for workers in [2, 3, 4, 8] {
                let par = analyze(
                    chain_dumps(),
                    PipelineConfig { workers, shards },
                );
                assert_identical(&serial, &par);
            }
        }
    }

    #[test]
    fn edges_match_legacy_stitched() {
        let dumps = chain_dumps();
        let st = Stitched::new(dumps.clone());
        let rep = analyze(dumps, PipelineConfig::default());
        assert_eq!(rep.edges, st.request_edges());
        assert_eq!(rep.unresolved, st.unresolved_edges());
        assert!(rep.warnings.is_empty());
    }

    #[test]
    fn json_matches_serial_serializer() {
        let dumps = chain_dumps();
        let want = dumpjson::to_json(&dumps);
        let rep = analyze(dumps, PipelineConfig::with_workers(4));
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
        // The origin's value is interned in the sharded dictionary.
        assert_eq!(rep.dict.value(p.global_ctx).map(|v| v.len()), Some(1));
    }

    #[test]
    fn crosstalk_resolves_to_origins() {
        let rep = analyze(chain_dumps(), PipelineConfig::with_workers(4));
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
    fn corrupt_stage_is_skipped_identically() {
        let mut dumps = chain_dumps();
        dumps[1].ccts[0].ctx = 99; // context out of range → invalid
        let serial = analyze(dumps.clone(), PipelineConfig::default());
        let par = analyze(dumps.clone(), PipelineConfig::with_workers(4));
        assert_identical(&serial, &par);
        assert_eq!(serial.warnings.len(), 1);
        assert_eq!(serial.warnings[0].0, 1);
        // Legacy comparison still holds with an invalid stage present.
        let st = Stitched::new(dumps);
        assert_eq!(serial.edges, st.request_edges());
        assert_eq!(serial.unresolved, st.unresolved_edges());
    }

    #[test]
    fn fleet_replication_is_consistent_and_analyzable() {
        let fleet = replicate_fleet(&chain_dumps(), 5);
        assert_eq!(fleet.len(), 15);
        let procs: BTreeSet<u32> = fleet.iter().map(|d| d.proc).collect();
        assert_eq!(procs.len(), 15, "disjoint proc ids");
        let serial = analyze(fleet.clone(), PipelineConfig::default());
        let par = analyze(fleet, PipelineConfig::with_workers(4));
        assert_identical(&serial, &par);
        // One profile per replica origin, all resolved (no unresolved
        // edges introduced by remapping).
        assert_eq!(serial.profiles.len(), 5);
        assert!(serial.unresolved.is_empty());
        assert_eq!(serial.edges.len(), 10);
    }
}
