//! Rendering of per-context CCT profiles (Figures 8–10 style).
//!
//! All text renderers append into one buffer: integers go through
//! [`whodunit_core::txt`]'s fixed-buffer formatter, context and origin
//! labels through the core's label writers, and floats through `write!`
//! directly into the output `String`, so no line or label allocates an
//! intermediate `format!` string.

use std::fmt::Write as _;
use whodunit_core::cct::{Cct, SortedWalk};
use whodunit_core::pipeline::PipelineReport;
use whodunit_core::stitch::StageDump;
use whodunit_core::synopsis::Synopsis;
use whodunit_core::txt::{push_u32, push_usize};

/// One rendered context entry: the context string and its share of the
/// stage's total profile.
#[derive(Clone, Debug, PartialEq)]
pub struct CtxShare {
    /// Human-readable context.
    pub ctx: String,
    /// Percent of the stage's samples collected under this context.
    pub pct: f64,
    /// Raw samples.
    pub samples: u64,
    /// Raw cycles.
    pub cycles: u64,
}

/// Computes each context's share of a stage's profile, sorted by
/// descending share (the numbers in Figures 9 and 10's triangles).
pub fn context_shares(dump: &StageDump) -> Vec<CtxShare> {
    let mut shares = Vec::new();
    let mut total_samples = 0u64;
    let mut per_ctx: Vec<(u32, u64, u64)> = Vec::new();
    for c in &dump.ccts {
        // Malformed CCTs (corrupt dump) are skipped; the valid remainder
        // still renders.
        let Ok(cct) = dump.rebuild_cct(c) else {
            continue;
        };
        let m = cct.total();
        total_samples += m.samples;
        per_ctx.push((c.ctx, m.samples, m.cycles));
    }
    for (ctx, samples, cycles) in per_ctx {
        let pct = if total_samples == 0 {
            0.0
        } else {
            samples as f64 * 100.0 / total_samples as f64
        };
        shares.push(CtxShare {
            ctx: dump.ctx_string(ctx),
            pct,
            samples,
            cycles,
        });
    }
    shares.sort_by(|a, b| {
        b.pct
            .partial_cmp(&a.pct)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    shares
}

/// Renders one stage's transactional profile as an indented text tree:
/// one block per context, with per-node inclusive percentages of the
/// stage total (the triangles of Figure 8).
pub fn render_stage(dump: &StageDump) -> String {
    let mut out = String::new();
    render_stage_into(dump, &mut out);
    out
}

/// [`render_stage`] appending into a caller-supplied buffer.
pub fn render_stage_into(dump: &StageDump, out: &mut String) {
    out.push_str("=== stage ");
    push_u32(out, dump.proc);
    out.push_str(" (");
    out.push_str(&dump.stage_name);
    out.push_str(") ===\n");
    let mut total_samples = 0u64;
    for c in &dump.ccts {
        if let Ok(cct) = dump.rebuild_cct(c) {
            total_samples += cct.total().samples;
        }
    }
    let mut walk = SortedWalk::default();
    for c in &dump.ccts {
        out.push_str("ctx: ");
        dump.ctx_string_into(out, c.ctx);
        let Ok(cct) = dump.rebuild_cct(c) else {
            out.push_str(" <corrupt cct skipped>\n");
            continue;
        };
        out.push('\n');
        render_tree(out, dump, &cct, total_samples, &mut walk);
    }
}

/// One line per framed node, indented two spaces per level (the root
/// sits at level 1 and prints nothing), with its inclusive share of
/// `total_samples`.
fn render_tree(
    out: &mut String,
    dump: &StageDump,
    cct: &Cct,
    total_samples: u64,
    walk: &mut SortedWalk,
) {
    cct.walk_sorted(walk, |node, depth, inc| {
        let Some(f) = cct.frame(node) else {
            return;
        };
        let samples = inc.samples;
        let pct = if total_samples == 0 {
            0.0
        } else {
            samples as f64 * 100.0 / total_samples as f64
        };
        for _ in 0..=depth {
            out.push_str("  ");
        }
        out.push_str(dump.frames.get(f.0 as usize).map(|n| &**n).unwrap_or("<?>"));
        // Float percentages keep `write!` so rounding matches `Display`
        // byte-for-byte; the write lands directly in `out`.
        let _ = write!(out, " [{pct:.2}%]");
        out.push('\n');
    });
}

/// Renders a stage profile as a Graphviz DOT digraph: solid edges for
/// calls, one cluster per transaction context (the dashed transaction
/// edges of Figure 8 connect clusters in the stitched view).
pub fn render_dot(dump: &StageDump) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", dump.stage_name);
    for (ci, c) in dump.ccts.iter().enumerate() {
        let Ok(cct) = dump.rebuild_cct(c) else {
            continue;
        };
        let _ = write!(
            out,
            "  subgraph cluster_{ci} {{\n    label=\"{}\";\n",
            dump.ctx_string(c.ctx).replace('"', "'")
        );
        for node in cct.node_ids() {
            if let Some(f) = cct.frame(node) {
                let name = dump.frames.get(f.0 as usize).map(|n| &**n).unwrap_or("<?>");
                let _ = writeln!(out, "    n{ci}_{} [label=\"{name}\"];", node.0);
                if let Some(p) = cct.parent(node) {
                    if cct.frame(p).is_some() {
                        let _ = writeln!(out, "    n{ci}_{} -> n{ci}_{};", p.0, node.0);
                    }
                }
            }
        }
        out.push_str("  }\n");
    }
    out.push_str("}\n");
    out
}

/// Renders a whole stitched profile set as one Graphviz DOT digraph:
/// one cluster per (stage, context) CCT, solid call edges inside
/// clusters, and dashed transaction edges from each caller send point
/// to the callee context it established — the Figure 7 presentation.
pub fn render_stitched_dot(stitched: &PipelineReport) -> String {
    let mut out = String::new();
    out.push_str("digraph whodunit {\n  compound=true;\n");
    // Remember one representative node per (stage, ctx) so transaction
    // edges have endpoints.
    let mut anchor: std::collections::HashMap<(usize, u32), String> =
        std::collections::HashMap::new();
    for (si, d) in stitched.stages.iter().enumerate() {
        for c in &d.ccts {
            let Ok(cct) = d.rebuild_cct(c) else {
                continue;
            };
            let cl = format!("cluster_s{si}_c{}", c.ctx);
            let _ = write!(
                out,
                "  subgraph {cl} {{\n    label=\"{}: {}\";\n",
                d.stage_name,
                d.ctx_string(c.ctx).replace('"', "'")
            );
            let mut first = None;
            for node in cct.node_ids() {
                if let Some(f) = cct.frame(node) {
                    let name = d.frames.get(f.0 as usize).map(|n| &**n).unwrap_or("<?>");
                    let id = format!("s{si}_c{}_n{}", c.ctx, node.0);
                    let _ = writeln!(out, "    {id} [label=\"{name}\"];");
                    if first.is_none() {
                        first = Some(id.clone());
                    }
                    if let Some(p) = cct.parent(node) {
                        if cct.frame(p).is_some() {
                            let _ = writeln!(out, "    s{si}_c{}_n{} -> {id};", c.ctx, p.0);
                        }
                    }
                }
            }
            out.push_str("  }\n");
            if let Some(a) = first {
                anchor.insert((si, c.ctx), a);
            }
        }
    }
    // Dashed transaction edges (request direction).
    for e in &stitched.edges {
        let (Some(from), Some(to)) = (
            anchor.get(&(e.from_stage, e.from_ctx)),
            anchor.get(&(e.to_stage, e.to_ctx)),
        ) else {
            continue;
        };
        let _ = writeln!(
            out,
            "  {from} -> {to} [style=dashed, label=\"request\", ltail=cluster_s{}_c{}, lhead=cluster_s{}_c{}];",
            e.from_stage, e.from_ctx, e.to_stage, e.to_ctx
        );
    }
    out.push_str("}\n");
    out
}

/// Renders every stage of a stitched set as text trees, followed by the
/// transaction edges (the "final presentation phase" of §7.1).
pub fn render_stitched_text(stitched: &PipelineReport) -> String {
    let mut out = String::new();
    for d in &stitched.stages {
        render_stage_into(d, &mut out);
        out.push('\n');
    }
    out.push_str("transaction edges (request direction):\n");
    for e in &stitched.edges {
        out.push_str("  ");
        stitched.origin_label_into(&mut out, e.from_stage, e.from_ctx);
        out.push_str("  ==>  ");
        stitched.origin_label_into(&mut out, e.to_stage, e.to_ctx);
        out.push('\n');
    }
    // A partial run is visibly partial: edges whose sender dump is
    // missing or corrupt, and dumps skipped at stitch time.
    if !stitched.unresolved.is_empty() {
        out.push_str("unresolved edges (sender dump missing or pruned):\n");
        for e in &stitched.unresolved {
            out.push_str("  ???[");
            Synopsis(e.missing).push_into(&mut out);
            out.push_str("]  ==>  ");
            stitched.origin_label_into(&mut out, e.to_stage, e.to_ctx);
            out.push('\n');
        }
    }
    for (si, err) in &stitched.warnings {
        let _ = writeln!(
            out,
            "warning: stage {si} ({}) skipped: {err}",
            stitched.stages[*si].stage_name
        );
    }
    out
}

/// Renders the analysis pipeline's full report as one canonical text
/// document: per-transaction profiles, request/unresolved edges, the
/// cross-stage crosstalk matrix, and a dictionary summary.
///
/// This is the byte-comparison surface of the golden-file suite
/// (`tests/golden_report.rs`), so its format is part of the repo's
/// compatibility contract: change it only together with the goldens
/// (regenerate with `UPDATE_GOLDEN=1`).
pub fn render_pipeline(rep: &PipelineReport) -> String {
    let mut out = String::new();
    out.push_str("pipeline analysis: ");
    push_usize(&mut out, rep.stages.len());
    out.push_str(" stages, ");
    push_usize(&mut out, rep.profiles.len());
    out.push_str(" profiles, ");
    push_usize(&mut out, rep.frames.len());
    out.push_str(" frames, dict ");
    push_usize(&mut out, rep.dict.len());
    out.push_str(" values\n\n");
    out.push_str("== stitched transactions ==\n");
    rep.stitched_text_into(&mut out);
    out.push_str("\n== crosstalk ==\n");
    rep.crosstalk_text_into(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use whodunit_core::stitch::{DumpCct, DumpNode};

    fn sample_dump() -> StageDump {
        StageDump {
            proc: 0,
            stage_name: "svc".into(),
            frames: vec!["main".into(), "work".into()],
            contexts: vec![Default::default()],
            ccts: vec![DumpCct {
                ctx: 0,
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
                        samples: 10,
                        cycles: 100,
                        calls: 0,
                    },
                    DumpNode {
                        frame: Some(1),
                        parent: Some(1),
                        samples: 30,
                        cycles: 300,
                        calls: 0,
                    },
                ],
            }],
            ..StageDump::default()
        }
    }

    #[test]
    fn shares_sum_to_100() {
        let shares = context_shares(&sample_dump());
        assert_eq!(shares.len(), 1);
        assert!((shares[0].pct - 100.0).abs() < 1e-9);
        assert_eq!(shares[0].samples, 40);
    }

    #[test]
    fn tree_shows_inclusive_percentages() {
        let s = render_stage(&sample_dump());
        assert!(s.contains("main [100.00%]"), "{s}");
        assert!(s.contains("work [75.00%]"), "{s}");
    }

    #[test]
    fn dot_output_has_nodes_and_edges() {
        let d = render_dot(&sample_dump());
        assert!(d.contains("digraph"));
        assert!(d.contains("label=\"main\""));
        assert!(d.contains("->"));
        assert!(d.ends_with("}\n"));
    }

    #[test]
    fn empty_dump_renders() {
        let d = StageDump::default();
        assert!(render_stage(&d).contains("=== stage"));
        assert!(context_shares(&d).is_empty());
    }

    #[test]
    fn stitched_dot_draws_transaction_edges() {
        use whodunit_core::pipeline::{analyze, PipelineConfig};
        use whodunit_core::stitch::{DumpAtom, DumpContext};
        let caller = StageDump {
            proc: 0,
            stage_name: "caller".into(),
            frames: vec!["main".into(), "rpc".into()],
            contexts: vec![
                DumpContext::default(),
                DumpContext {
                    atoms: vec![DumpAtom::Path(vec![0, 1])].into(),
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
                        samples: 5,
                        cycles: 50,
                        calls: 0,
                    },
                ],
            }],
            synopses: vec![(7, 1)],
            ..StageDump::default()
        };
        let callee = StageDump {
            proc: 1,
            stage_name: "callee".into(),
            frames: vec!["svc".into()],
            contexts: vec![
                DumpContext::default(),
                DumpContext {
                    atoms: vec![DumpAtom::Remote(vec![7])].into(),
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
                        samples: 9,
                        cycles: 90,
                        calls: 0,
                    },
                ],
            }],
            ..StageDump::default()
        };
        let st = analyze(vec![caller, callee], PipelineConfig::default());
        let dot = render_stitched_dot(&st);
        assert!(dot.contains("style=dashed"), "{dot}");
        assert!(dot.contains("cluster_s0_c1"));
        assert!(dot.contains("cluster_s1_c1"));
        let text = render_stitched_text(&st);
        assert!(text.contains("==>"), "{text}");
        assert!(text.contains("caller"));
        assert!(text.contains("callee"));
    }

    /// A chain CCT (each node the previous one's child) renders through
    /// the stage tree and the pipeline's stitched text on a 128 KiB
    /// stack: neither renderer spends a call frame per level.
    #[test]
    fn deep_chain_renders_on_a_small_stack() {
        use whodunit_core::pipeline::{analyze, PipelineConfig};
        const DEPTH: usize = 2_000;
        let link = |i: usize| DumpNode {
            frame: Some(0),
            parent: Some(i as u32),
            samples: 1,
            cycles: 10,
            calls: 0,
        };
        let root = DumpNode {
            frame: None,
            parent: None,
            samples: 0,
            cycles: 0,
            calls: 0,
        };
        let dump = StageDump {
            stage_name: "deep".into(),
            frames: vec!["f".into()],
            contexts: vec![Default::default()],
            ccts: vec![DumpCct {
                ctx: 0,
                nodes: std::iter::once(root).chain((0..DEPTH).map(link)).collect(),
            }],
            ..StageDump::default()
        };
        let worker = std::thread::Builder::new()
            .stack_size(128 << 10)
            .spawn(move || {
                let stage = render_stage(&dump);
                let stitched = analyze(vec![dump], PipelineConfig::default()).stitched_text();
                (stage, stitched)
            })
            .expect("spawn the renderer thread");
        let (stage, stitched) = worker.join().expect("renderers finished");
        let deepest = "  ".repeat(DEPTH + 1);
        let stage: Vec<&str> = stage.lines().collect();
        assert_eq!(stage.len(), 2 + DEPTH);
        assert_eq!(stage[2], "    f [100.00%]");
        assert_eq!(stage[1 + DEPTH], format!("{deepest}f [0.05%]"));
        let stitched: Vec<&str> = stitched.lines().collect();
        assert_eq!(stitched[1], "    f samples 2000 cycles 20000");
        assert_eq!(stitched[DEPTH], format!("{deepest}f samples 1 cycles 10"));
    }
}
