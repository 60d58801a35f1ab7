//! The read side as it was before its writers took a byte sink, kept
//! as the byte-identity oracle for them: the dump JSON writer
//! (`to_json`, `dump_to_json`, with the one-digit-per-step integer
//! formatter it used), the context label (`ctx_string_of`), and the
//! report's two texts and fingerprint, as free functions over the
//! report's public fields. Each built its own `String`s — per label,
//! per CCT child list, per text — which is what the product's writers
//! no longer do; the bytes must not have moved.
//!
//! Shared by `parallel_diff` (the 36-scenario TPC-W corpus) and
//! `read_side` (random dumps with hostile names).

#![allow(dead_code)]

use std::sync::Arc;
use whodunit_core::cct::{Cct, CctNodeId};
use whodunit_core::hash::Fnv64;
use whodunit_core::pipeline::PipelineReport;
use whodunit_core::stitch::{DumpAtom, DumpContext, DumpNode, StageDump};
use whodunit_core::synopsis::Synopsis;

// ---------------------------------------------------------------------
// Dump JSON
// ---------------------------------------------------------------------

fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let mut pos = 20;
    let mut v = v;
    loop {
        pos -= 1;
        buf[pos] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[pos..]).unwrap());
}

fn push_u32(out: &mut String, v: u32) {
    push_u64(out, u64::from(v));
}

fn esc(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let b = c as u32;
                out.push_str("\\u00");
                out.push(char::from_digit(b >> 4, 16).unwrap());
                out.push(char::from_digit(b & 0xf, 16).unwrap());
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_u32_list(xs: &[u32], out: &mut String) {
    out.push('[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u32(out, x);
    }
    out.push(']');
}

fn write_u64_list(xs: &[u64], out: &mut String) {
    out.push('[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, x);
    }
    out.push(']');
}

fn write_atom(a: &DumpAtom, out: &mut String) {
    match a {
        DumpAtom::Frame(f) => {
            out.push_str("{\"Frame\":");
            push_u32(out, *f);
            out.push('}');
        }
        DumpAtom::Path(p) => {
            out.push_str("{\"Path\":");
            write_u32_list(p, out);
            out.push('}');
        }
        DumpAtom::Remote(r) => {
            out.push_str("{\"Remote\":");
            write_u64_list(r, out);
            out.push('}');
        }
    }
}

fn write_opt_u32(v: Option<u32>, out: &mut String) {
    match v {
        Some(x) => push_u32(out, x),
        None => out.push_str("null"),
    }
}

fn write_node(n: &DumpNode, out: &mut String) {
    out.push_str("{\"frame\":");
    write_opt_u32(n.frame, out);
    out.push_str(",\"parent\":");
    write_opt_u32(n.parent, out);
    out.push_str(",\"samples\":");
    push_u64(out, n.samples);
    out.push_str(",\"cycles\":");
    push_u64(out, n.cycles);
    out.push_str(",\"calls\":");
    push_u64(out, n.calls);
    out.push('}');
}

fn write_dump(d: &StageDump, out: &mut String) {
    out.push_str("{\n  \"proc\": ");
    push_u32(out, d.proc);
    out.push_str(",\n  \"stage_name\": ");
    esc(&d.stage_name, out);
    out.push_str(",\n  \"frames\": [");
    for (i, f) in d.frames.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        esc(f, out);
    }
    out.push_str("],\n  \"contexts\": [");
    for (i, c) in d.contexts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"atoms\":[");
        for (j, a) in c.atoms.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_atom(a, out);
        }
        out.push_str("]}");
    }
    out.push_str("],\n  \"ccts\": [");
    for (i, c) in d.ccts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"ctx\":");
        push_u32(out, c.ctx);
        out.push_str(",\"nodes\":[");
        for (j, n) in c.nodes.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_node(n, out);
        }
        out.push_str("]}");
    }
    out.push_str("],\n  \"synopses\": [");
    for (i, &(raw, ctx)) in d.synopses.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_u64(out, raw);
        out.push(',');
        push_u32(out, ctx);
        out.push(']');
    }
    out.push_str("],\n  \"crosstalk_pairs\": [");
    for (i, p) in d.crosstalk_pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"waiter\":");
        push_u32(out, p.waiter);
        out.push_str(",\"holder\":");
        push_u32(out, p.holder);
        out.push_str(",\"count\":");
        push_u64(out, p.count);
        out.push_str(",\"total_wait\":");
        push_u64(out, p.total_wait);
        out.push('}');
    }
    out.push_str("],\n  \"crosstalk_waiters\": [");
    for (i, w) in d.crosstalk_waiters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"waiter\":");
        push_u32(out, w.waiter);
        out.push_str(",\"count\":");
        push_u64(out, w.count);
        out.push_str(",\"total_wait\":");
        push_u64(out, w.total_wait);
        out.push('}');
    }
    out.push_str("],\n  \"piggyback_bytes\": ");
    push_u64(out, d.piggyback_bytes);
    out.push_str(",\n  \"messages\": ");
    push_u64(out, d.messages);
    out.push_str("\n}");
}

/// Serializes one stage dump.
pub fn dump_to_json(d: &StageDump) -> String {
    let mut out = String::new();
    write_dump(d, &mut out);
    out
}

/// Serializes a set of stage dumps (the on-disk profile file).
pub fn to_json(dumps: &[StageDump]) -> String {
    let mut out = String::new();
    out.push_str("[\n");
    for (i, d) in dumps.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        write_dump(d, &mut out);
    }
    out.push_str("\n]\n");
    out
}

// ---------------------------------------------------------------------
// Labels
// ---------------------------------------------------------------------

/// A dumped context as a human-readable string.
pub fn ctx_string_of(frames: &[Arc<str>], contexts: &[DumpContext], ctx: u32) -> String {
    let Some(c) = contexts.get(ctx as usize) else {
        return format!("<ctx {ctx}?>");
    };
    if c.atoms.is_empty() {
        return "<root>".to_owned();
    }
    let frame_name = |f: &u32| -> String {
        frames
            .get(*f as usize)
            .map_or_else(|| format!("<frame {f}?>"), |n| n.to_string())
    };
    let mut parts = Vec::new();
    for a in c.atoms.iter() {
        match a {
            DumpAtom::Frame(f) => parts.push(frame_name(f)),
            DumpAtom::Path(p) => parts.push(format!(
                "[{}]",
                p.iter().map(frame_name).collect::<Vec<_>>().join(">")
            )),
            DumpAtom::Remote(chain) => parts.push(format!(
                "remote({})",
                chain
                    .iter()
                    .map(|s| Synopsis(*s).to_string())
                    .collect::<Vec<_>>()
                    .join("#")
            )),
        }
    }
    parts.join(" -> ")
}

/// `stage_name:context` label for an origin key.
pub fn origin_label(rep: &PipelineReport, stage: usize, ctx: u32) -> String {
    match rep.stages.get(stage) {
        Some(d) => format!(
            "{}:{}",
            d.stage_name,
            ctx_string_of(&d.frames, &d.contexts, ctx)
        ),
        None => format!("<stage {stage}?>:{ctx}"),
    }
}

// ---------------------------------------------------------------------
// The report's texts
// ---------------------------------------------------------------------

/// Pre-order, children by frame id: a child list per node, each built
/// and sorted on its own.
fn visit_sorted(cct: &Cct, mut visit: impl FnMut(CctNodeId, usize)) {
    let ids: Vec<CctNodeId> = cct.node_ids().collect();
    let mut children: Vec<Vec<CctNodeId>> = vec![Vec::new(); ids.len()];
    for &n in &ids[1..] {
        let p = cct.parent(n).expect("non-root node has a parent");
        children[p.0 as usize].push(n);
    }
    for c in &mut children {
        c.sort_by_key(|&n| cct.frame(n));
    }
    let mut stack = vec![(CctNodeId::ROOT, 0)];
    while let Some((node, depth)) = stack.pop() {
        visit(node, depth);
        let kids = &children[node.0 as usize];
        stack.extend(kids.iter().rev().map(|&c| (c, depth + 1)));
    }
}

fn render_cct(rep: &PipelineReport, out: &mut String, cct: &Cct) {
    let inc = cct.inclusive_all();
    visit_sorted(cct, |node, depth| {
        let Some(f) = cct.frame(node) else {
            return;
        };
        let name = rep
            .frames
            .get(f.0 as usize)
            .map(String::as_str)
            .unwrap_or("<?>");
        let m = inc[node.0 as usize];
        for _ in 0..=depth {
            out.push_str("  ");
        }
        out.push_str(&format!(
            "{name} samples {} cycles {}\n",
            m.samples, m.cycles
        ));
    });
}

/// The stitched per-transaction profiles, request edges, unresolved
/// edges, and warnings.
pub fn stitched_text(rep: &PipelineReport) -> String {
    let mut out = String::new();
    for p in &rep.profiles {
        let (os, oc) = p.origin;
        out.push_str(&format!(
            "origin {} [{}] stages={:?}\n",
            origin_label(rep, os, oc),
            p.global_ctx,
            p.stages
        ));
        render_cct(rep, &mut out, &p.cct);
    }
    out.push_str("request edges:\n");
    for e in &rep.edges {
        out.push_str(&format!(
            "  {}  ==>  {}\n",
            origin_label(rep, e.from_stage, e.from_ctx),
            origin_label(rep, e.to_stage, e.to_ctx)
        ));
    }
    if !rep.unresolved.is_empty() {
        out.push_str("unresolved edges:\n");
        for e in &rep.unresolved {
            out.push_str(&format!(
                "  ???[{}]  ==>  {}\n",
                Synopsis(e.missing),
                origin_label(rep, e.to_stage, e.to_ctx)
            ));
        }
    }
    for (si, err) in &rep.warnings {
        out.push_str(&format!(
            "warning: stage {si} ({}) skipped: {err}\n",
            rep.stages[*si].stage_name
        ));
    }
    out
}

/// The crosstalk matrix.
pub fn crosstalk_text(rep: &PipelineReport) -> String {
    let label = |s, c| origin_label(rep, s, c);
    let mut out = String::new();
    out.push_str("crosstalk matrix (waiter <- holder):\n");
    for &((ws, wc), (hs, hc), s) in &rep.matrix.pairs {
        out.push_str(&format!(
            "  {}  <-  {}  waits {} total {} mean {:.1}\n",
            label(ws, wc),
            label(hs, hc),
            s.count,
            s.total_wait,
            s.mean()
        ));
    }
    out.push_str("waiters:\n");
    for &((ws, wc), s) in &rep.matrix.waiters {
        out.push_str(&format!(
            "  {}  acquires {} total {} mean {:.1}\n",
            label(ws, wc),
            s.count,
            s.total_wait,
            s.mean()
        ));
    }
    out
}

/// FNV-1a over the stitched text, the crosstalk text and the dump JSON.
pub fn fingerprint(rep: &PipelineReport) -> u64 {
    let mut h = Fnv64::new();
    h.write(stitched_text(rep).as_bytes());
    h.write(crosstalk_text(rep).as_bytes());
    h.write(rep.dumps_json.as_bytes());
    h.finish()
}
