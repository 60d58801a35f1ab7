//! TPC-W cross-tier resolution and Table 1 assembly (§8.4).
//!
//! At MySQL every transaction context is a remote synopsis chain; only
//! the post-mortem stitching phase can say *which interaction* it
//! belongs to: the request edge [`whodunit_core::pipeline::analyze`]
//! resolved from the chain's most recent synopsis leads back to the
//! application server's send-point context, whose call path names the
//! servlet.

use whodunit_core::pipeline::PipelineReport;
use whodunit_core::stitch::{DumpAtom, StageDump};

/// Follows request edges from `(stage, ctx)` to the chain of
/// `(stage, ctx)` hops, most recent sender first. Empty for a local
/// context, an unresolved sender, or a stage skipped as invalid.
pub fn hops(stitched: &PipelineReport, stage: usize, ctx: u32) -> Vec<(usize, u32)> {
    let mut out = Vec::new();
    let mut cur = (stage, ctx);
    // Chains are acyclic in well-formed profiles; the bound stops a
    // malformed one.
    for _ in 0..16 {
        let Some(next) = stitched.sender(cur.0, cur.1) else {
            break;
        };
        out.push(next);
        cur = next;
    }
    out
}

/// All frame names appearing in a context's `Frame`/`Path` atoms.
/// Out-of-range indices (corrupt dump) are skipped, not panicked on.
pub fn ctx_frames(dump: &StageDump, ctx: u32) -> Vec<&str> {
    let mut out = Vec::new();
    let Some(context) = dump.contexts.get(ctx as usize) else {
        return out;
    };
    let name = |f: u32| dump.frames.get(f as usize).map(|n| &**n);
    for atom in context.atoms.iter() {
        match atom {
            DumpAtom::Frame(f) => out.extend(name(*f)),
            DumpAtom::Path(p) => {
                out.extend(p.iter().filter_map(|&f| name(f)));
            }
            DumpAtom::Remote(_) => {}
        }
    }
    out
}

/// Labels a (possibly remote) context by the first frame — searching
/// the sender hops nearest-first — whose name satisfies `pred`.
pub fn label_by_frame(
    stitched: &PipelineReport,
    stage: usize,
    ctx: u32,
    pred: &dyn Fn(&str) -> bool,
) -> Option<String> {
    for name in ctx_frames(&stitched.stages[stage], ctx) {
        if pred(name) {
            return Some(name.to_owned());
        }
    }
    for (s, c) in hops(stitched, stage, ctx) {
        for name in ctx_frames(&stitched.stages[s], c) {
            if pred(name) {
                return Some(name.to_owned());
            }
        }
    }
    None
}

/// One Table 1 row.
#[derive(Clone, Debug, PartialEq)]
pub struct Table1Row {
    /// Interaction label.
    pub interaction: String,
    /// Share of MySQL's CPU profile, in percent.
    pub cpu_pct: f64,
    /// Mean crosstalk wait per query, in milliseconds.
    pub crosstalk_ms: f64,
}

/// Assembles Table 1 from a stitched profile set.
///
/// `mysql_stage` indexes the MySQL dump within `stitched` (out of
/// range tabulates nothing); `label_of` maps a frame name (e.g. a
/// servlet) to the interaction label, or `None` for frames that do not
/// identify an interaction.
pub fn table1(
    stitched: &PipelineReport,
    mysql_stage: usize,
    label_of: &dyn Fn(&str) -> Option<String>,
) -> Vec<Table1Row> {
    let Some(dump) = stitched.stages.get(mysql_stage) else {
        return Vec::new();
    };
    let pred = |n: &str| label_of(n).is_some();
    // CPU shares per context → per interaction.
    let mut cpu: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    let mut total_samples = 0u64;
    let mut per_ctx: Vec<(u32, u64)> = Vec::new();
    for c in &dump.ccts {
        // Corrupt CCTs are skipped; the valid remainder still tabulates.
        let Ok(cct) = dump.rebuild_cct(c) else {
            continue;
        };
        let m = cct.total();
        total_samples += m.samples;
        per_ctx.push((c.ctx, m.samples));
    }
    for (ctx, samples) in per_ctx {
        let Some(label) =
            label_by_frame(stitched, mysql_stage, ctx, &pred).and_then(|n| label_of(&n))
        else {
            continue;
        };
        if total_samples > 0 {
            *cpu.entry(label).or_insert(0.0) += samples as f64 * 100.0 / total_samples as f64;
        }
    }
    // Crosstalk means per interaction, over *all* acquires of that
    // interaction's contexts (Table 1's "mean crosstalk wait time").
    let mut waits: std::collections::HashMap<String, (u64, u64)> = std::collections::HashMap::new();
    for w in &dump.crosstalk_waiters {
        let Some(label) =
            label_by_frame(stitched, mysql_stage, w.waiter, &pred).and_then(|n| label_of(&n))
        else {
            continue;
        };
        let e = waits.entry(label).or_insert((0, 0));
        e.0 += w.count;
        e.1 += w.total_wait;
    }
    let mut labels: Vec<String> = cpu.keys().chain(waits.keys()).cloned().collect();
    labels.sort();
    labels.dedup();
    labels
        .into_iter()
        .map(|label| {
            let cpu_pct = cpu.get(&label).copied().unwrap_or(0.0);
            let (count, total) = waits.get(&label).copied().unwrap_or((0, 0));
            let crosstalk_ms = total
                .checked_div(count)
                .map(whodunit_core::cost::cycles_to_ms)
                .unwrap_or(0.0);
            Table1Row {
                interaction: label,
                cpu_pct,
                crosstalk_ms,
            }
        })
        .collect()
}

/// Crosstalk pairs resolved to interaction labels: (waiter, holder,
/// mean wait ms, count).
pub fn crosstalk_pairs(
    stitched: &PipelineReport,
    mysql_stage: usize,
    label_of: &dyn Fn(&str) -> Option<String>,
) -> Vec<(String, String, f64, u64)> {
    let Some(dump) = stitched.stages.get(mysql_stage) else {
        return Vec::new();
    };
    let pred = |n: &str| label_of(n).is_some();
    let mut agg: std::collections::HashMap<(String, String), (u64, u64)> =
        std::collections::HashMap::new();
    for p in &dump.crosstalk_pairs {
        let w = label_by_frame(stitched, mysql_stage, p.waiter, &pred).and_then(|n| label_of(&n));
        let h = label_by_frame(stitched, mysql_stage, p.holder, &pred).and_then(|n| label_of(&n));
        if let (Some(w), Some(h)) = (w, h) {
            let e = agg.entry((w, h)).or_insert((0, 0));
            e.0 += p.count;
            e.1 += p.total_wait;
        }
    }
    let mut out: Vec<_> = agg
        .into_iter()
        .map(|((w, h), (count, total))| {
            (
                w,
                h,
                whodunit_core::cost::cycles_to_ms(total / count.max(1)),
                count,
            )
        })
        .collect();
    out.sort_by(|a, b| (b.2 * b.3 as f64).total_cmp(&(a.2 * a.3 as f64)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use whodunit_core::pipeline::{analyze, PipelineConfig};
    use whodunit_core::stitch::{DumpCct, DumpContext, DumpCrosstalkWaiter, DumpNode};

    /// A 2-stage dump set: tomcat ctx 1 has a path through "TPCW_home"
    /// and minted synopsis 100; mysql ctx 1 is remote([100]) with
    /// samples and crosstalk.
    fn dumps() -> Vec<StageDump> {
        let tomcat = StageDump {
            proc: 1,
            stage_name: "tomcat".into(),
            frames: vec!["service".into(), "TPCW_home".into()],
            contexts: vec![
                DumpContext::default(),
                DumpContext {
                    atoms: vec![DumpAtom::Path(vec![0, 1])].into(),
                },
            ],
            synopses: vec![(100, 1)],
            ..StageDump::default()
        };
        let mysql = StageDump {
            proc: 2,
            stage_name: "mysql".into(),
            frames: vec!["do_command".into()],
            contexts: vec![
                DumpContext::default(),
                DumpContext {
                    atoms: vec![DumpAtom::Remote(vec![100])].into(),
                },
            ],
            ccts: vec![DumpCct {
                ctx: 1,
                nodes: vec![
                    DumpNode {
                        frame: None,
                        parent: None,
                        samples: 0,
                        cycles: 0,
                        calls: 0,
                    },
                    DumpNode {
                        frame: Some(0),
                        parent: Some(0),
                        samples: 50,
                        cycles: 500,
                        calls: 0,
                    },
                ],
            }],
            crosstalk_waiters: vec![DumpCrosstalkWaiter {
                waiter: 1,
                count: 10,
                total_wait: 24_000_000, // 10 ms at 2.4 GHz.
            }],
            ..StageDump::default()
        };
        vec![tomcat, mysql]
    }

    fn stitch(dumps: Vec<StageDump>) -> PipelineReport {
        analyze(dumps, PipelineConfig::default())
    }

    fn setup() -> PipelineReport {
        stitch(dumps())
    }

    fn label(n: &str) -> Option<String> {
        n.strip_prefix("TPCW_").map(str::to_owned)
    }

    #[test]
    fn hops_resolve_to_sender() {
        let st = setup();
        assert_eq!(hops(&st, 1, 1), vec![(0, 1)]);
        assert!(hops(&st, 0, 1).is_empty());
    }

    #[test]
    fn hops_from_a_stage_skipped_as_invalid_are_empty() {
        // A stage the index rejected contributes no edges, so nothing
        // is resolved on its behalf — not even through the intact
        // sender's mint.
        let mut d = dumps();
        d[1].ccts[0].ctx = 9;
        let st = stitch(d);
        assert!(!st.stage_valid(1));
        assert!(hops(&st, 1, 1).is_empty());
    }

    #[test]
    fn waiter_row_naming_an_unknown_context_does_not_panic() {
        // `validate` does not range-check crosstalk rows, so this dump
        // is accepted; the made-up context has no label and no sender.
        let mut d = dumps();
        d[1].crosstalk_waiters[0].waiter = 99;
        assert_eq!(d[1].validate(), Ok(()));
        let st = stitch(d);
        let rows = table1(&st, 1, &label);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].interaction, "home");
        assert_eq!(rows[0].crosstalk_ms, 0.0);
        // A stage index the set does not have tabulates nothing.
        assert!(table1(&st, 99, &label).is_empty());
        assert!(crosstalk_pairs(&st, 99, &label).is_empty());
    }

    #[test]
    fn labels_resolve_through_hops() {
        let st = setup();
        let l = label_by_frame(&st, 1, 1, &|n| n.starts_with("TPCW_"));
        assert_eq!(l.as_deref(), Some("TPCW_home"));
    }

    #[test]
    fn table1_assembles_cpu_and_crosstalk() {
        let st = setup();
        let rows = table1(&st, 1, &label);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].interaction, "home");
        assert!((rows[0].cpu_pct - 100.0).abs() < 1e-9);
        assert!((rows[0].crosstalk_ms - 1.0).abs() < 1e-6);
    }

    #[test]
    fn unlabelled_contexts_are_skipped() {
        let st = setup();
        let rows = table1(&st, 1, &|_| None);
        assert!(rows.is_empty());
    }
}
