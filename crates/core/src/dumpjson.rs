//! JSON serialization of stage dumps — the §7.1 on-disk profile format.
//!
//! Hand-rolled (no serde: the build environment is offline and the
//! format is small and stable). The encoding matches what
//! serde_json's derive would have produced for the [`StageDump`] types:
//! struct fields as object keys, tuple `(a, b)` as `[a, b]`, enum
//! variants as `{"Variant": payload}`, `Option` as the payload or
//! `null`. Parsing is strict about structure but tolerant of unknown
//! object keys, so the format can grow.
//!
//! Like everything under stitching, parsed dumps are *untrusted*:
//! errors come back as [`StitchError`], never a panic.

use crate::stitch::{
    DumpAtom, DumpCct, DumpContext, DumpCrosstalkPair, DumpCrosstalkWaiter, DumpNode, StageDump,
    StitchError,
};
use crate::txt::{push_u32, push_u64, Sink};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// Whether JSON needs `b` escaped: the quote, the backslash and the
/// control bytes. All are ASCII, so no UTF-8 sequence contains one.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Writes `s` as a JSON string literal. A name with no byte to escape
/// (the usual case) is copied whole; otherwise the runs between
/// escapes are, so a run never splits a UTF-8 sequence.
pub(crate) fn esc<S: Sink + ?Sized>(s: &str, out: &mut S) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.put_char('"');
    // No early exit: the scan vectorizes, and names are short.
    if !s.bytes().fold(false, |any, b| any | needs_escape(b)) {
        out.put(s);
        out.put_char('"');
        return;
    }
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.put(s.get(run..i).unwrap_or_default());
        match b {
            b'"' => out.put("\\\""),
            b'\\' => out.put("\\\\"),
            b'\n' => out.put("\\n"),
            b'\r' => out.put("\\r"),
            b'\t' => out.put("\\t"),
            _ => {
                out.put("\\u00");
                out.put_char(char::from(HEX[usize::from(b >> 4)]));
                out.put_char(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.put(s.get(run..).unwrap_or_default());
    out.put_char('"');
}

fn write_u32_list<S: Sink + ?Sized>(xs: &[u32], out: &mut S) {
    out.put_char('[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.put_char(',');
        }
        push_u32(out, x);
    }
    out.put_char(']');
}

fn write_u64_list<S: Sink + ?Sized>(xs: &[u64], out: &mut S) {
    out.put_char('[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.put_char(',');
        }
        push_u64(out, x);
    }
    out.put_char(']');
}

fn write_atom<S: Sink + ?Sized>(a: &DumpAtom, out: &mut S) {
    match a {
        DumpAtom::Frame(f) => {
            out.put("{\"Frame\":");
            push_u32(out, *f);
            out.put_char('}');
        }
        DumpAtom::Path(p) => {
            out.put("{\"Path\":");
            write_u32_list(p, out);
            out.put_char('}');
        }
        DumpAtom::Remote(r) => {
            out.put("{\"Remote\":");
            write_u64_list(r, out);
            out.put_char('}');
        }
    }
}

fn write_opt_u32<S: Sink + ?Sized>(v: Option<u32>, out: &mut S) {
    match v {
        Some(x) => push_u32(out, x),
        None => out.put("null"),
    }
}

fn write_node<S: Sink + ?Sized>(n: &DumpNode, out: &mut S) {
    out.put("{\"frame\":");
    write_opt_u32(n.frame, out);
    out.put(",\"parent\":");
    write_opt_u32(n.parent, out);
    out.put(",\"samples\":");
    push_u64(out, n.samples);
    out.put(",\"cycles\":");
    push_u64(out, n.cycles);
    out.put(",\"calls\":");
    push_u64(out, n.calls);
    out.put_char('}');
}

/// Writes `items` comma-separated, each through `item`.
fn write_seq<S: Sink + ?Sized, T>(items: &[T], out: &mut S, item: impl Fn(&T, &mut S)) {
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.put_char(',');
        }
        item(x, out);
    }
}

/// Rough per-dump byte estimate used to preallocate the output buffer:
/// every node costs ~60 bytes of keys plus ~3 numbers, contexts and
/// synopses a few tens each. Over-estimating slightly is fine — the
/// point is avoiding repeated buffer regrowth mid-serialize.
fn estimate_dump_bytes(d: &StageDump) -> usize {
    let nodes: usize = d.ccts.iter().map(|c| c.nodes.len()).sum();
    let frames: usize = d.frames.iter().map(|f| f.len() + 4).sum();
    let atoms: usize = d
        .contexts
        .iter()
        .map(|c| {
            c.atoms
                .iter()
                .map(|a| match a {
                    DumpAtom::Frame(_) => 16,
                    DumpAtom::Path(p) => 16 + 8 * p.len(),
                    DumpAtom::Remote(r) => 18 + 8 * r.len(),
                })
                .sum::<usize>()
                + 16
        })
        .sum();
    256 + frames
        + atoms
        + nodes * 96
        + d.ccts.len() * 24
        + d.synopses.len() * 24
        + d.crosstalk_pairs.len() * 72
        + d.crosstalk_waiters.len() * 56
}

/// Serializes one stage dump.
pub fn dump_to_json(d: &StageDump) -> String {
    let mut out = String::with_capacity(estimate_dump_bytes(d));
    write_dump(d, &mut out);
    out
}

fn write_dump<S: Sink + ?Sized>(d: &StageDump, out: &mut S) {
    out.put("{\n  \"proc\": ");
    push_u32(out, d.proc);
    out.put(",\n  \"stage_name\": ");
    esc(&d.stage_name, out);
    out.put(",\n  \"frames\": [");
    write_seq(&d.frames, out, |f, out| esc(f, out));
    out.put("],\n  \"contexts\": [");
    write_seq(&d.contexts, out, |c: &DumpContext, out| {
        out.put("{\"atoms\":[");
        write_seq(&c.atoms, out, write_atom);
        out.put("]}");
    });
    out.put("],\n  \"ccts\": [");
    write_seq(&d.ccts, out, |c: &DumpCct, out| {
        out.put("{\"ctx\":");
        push_u32(out, c.ctx);
        out.put(",\"nodes\":[");
        write_seq(&c.nodes, out, write_node);
        out.put("]}");
    });
    out.put("],\n  \"synopses\": [");
    write_seq(&d.synopses, out, |&(raw, ctx), out| {
        out.put_char('[');
        push_u64(out, raw);
        out.put_char(',');
        push_u32(out, ctx);
        out.put_char(']');
    });
    out.put("],\n  \"crosstalk_pairs\": [");
    write_seq(&d.crosstalk_pairs, out, |p: &DumpCrosstalkPair, out| {
        out.put("{\"waiter\":");
        push_u32(out, p.waiter);
        out.put(",\"holder\":");
        push_u32(out, p.holder);
        out.put(",\"count\":");
        push_u64(out, p.count);
        out.put(",\"total_wait\":");
        push_u64(out, p.total_wait);
        out.put_char('}');
    });
    out.put("],\n  \"crosstalk_waiters\": [");
    write_seq(&d.crosstalk_waiters, out, |w: &DumpCrosstalkWaiter, out| {
        out.put("{\"waiter\":");
        push_u32(out, w.waiter);
        out.put(",\"count\":");
        push_u64(out, w.count);
        out.put(",\"total_wait\":");
        push_u64(out, w.total_wait);
        out.put_char('}');
    });
    out.put("],\n  \"piggyback_bytes\": ");
    push_u64(out, d.piggyback_bytes);
    out.put(",\n  \"messages\": ");
    push_u64(out, d.messages);
    out.put("\n}");
}

/// Serializes a set of stage dumps (the on-disk profile file).
pub fn to_json(dumps: &[StageDump]) -> String {
    let cap: usize = 8 + dumps.iter().map(estimate_dump_bytes).sum::<usize>();
    let mut out = String::with_capacity(cap);
    to_json_into(dumps, &mut out);
    out
}

/// [`to_json`] writing into any [`Sink`]: an `Fnv64` fingerprints the
/// file without building it.
pub fn to_json_into<S: Sink + ?Sized>(dumps: &[StageDump], out: &mut S) {
    out.put("[\n");
    for (i, d) in dumps.iter().enumerate() {
        if i > 0 {
            out.put(",\n");
        }
        write_dump(d, out);
    }
    out.put("\n]\n");
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// A parsed JSON value. Numbers are unsigned integers — the only kind
/// the dump and repro formats contain. Shared with [`crate::repro`],
/// which serializes chaos scenarios through the same layer.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Value {
    Null,
    Bool(bool),
    Num(u64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

/// Deepest `[` / `{` nesting the parser accepts. A dump nests 7 levels
/// and a repro 4; the bound keeps a hostile file from recursing the
/// parser off the end of its stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

#[deny(clippy::indexing_slicing)]
impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, StitchError> {
        Err(StitchError::Json {
            offset: self.pos,
            msg: msg.into(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.pos) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.b.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), StitchError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", c as char))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        if self
            .b
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(lit.as_bytes()))
        {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, StitchError> {
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => {
                if self.eat_lit("null") {
                    Ok(Value::Null)
                } else {
                    self.err("bad literal")
                }
            }
            Some(b't') => {
                if self.eat_lit("true") {
                    Ok(Value::Bool(true))
                } else {
                    self.err("bad literal")
                }
            }
            Some(b'f') => {
                if self.eat_lit("false") {
                    Ok(Value::Bool(false))
                } else {
                    self.err("bad literal")
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return self.err(format!("nesting deeper than {MAX_DEPTH} levels"));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c.is_ascii_digit() => self.number(),
            Some(b'-') => self.err("negative numbers do not occur in stage dumps"),
            Some(c) => self.err(format!("unexpected byte '{}'", c as char)),
        }
    }

    fn number(&mut self) -> Result<Value, StitchError> {
        let start = self.pos;
        while self.b.get(self.pos).is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self
            .b
            .get(self.pos)
            .is_some_and(|&c| c == b'.' || c == b'e' || c == b'E')
        {
            return self.err("non-integer numbers do not occur in stage dumps");
        }
        let s = self
            .b
            .get(start..self.pos)
            .and_then(|digits| std::str::from_utf8(digits).ok())
            .unwrap_or("");
        match s.parse::<u64>() {
            Ok(n) => Ok(Value::Num(n)),
            Err(_) => self.err("integer out of range"),
        }
    }

    fn string(&mut self) -> Result<String, StitchError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&c) = self.b.get(self.pos) else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&e) = self.b.get(self.pos) else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let Some(hex) = self.b.get(self.pos..self.pos + 4) else {
                                return self.err("truncated \\u escape");
                            };
                            let hex = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            self.pos += 4;
                            match hex.and_then(char::from_u32) {
                                Some(ch) => out.push(ch),
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: re-decode from the byte stream.
                    let start = self.pos - 1;
                    let len = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return self.err("invalid UTF-8 in string"),
                    };
                    let Some(bytes) = self.b.get(start..start + len) else {
                        return self.err("truncated UTF-8 in string");
                    };
                    match std::str::from_utf8(bytes) {
                        Ok(s) => {
                            out.push_str(s);
                            self.pos = start + len;
                        }
                        Err(_) => return self.err("invalid UTF-8 in string"),
                    }
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, StitchError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Value, StitchError> {
        self.expect(b'{')?;
        let mut items = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(items));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let v = self.value()?;
            items.push((key, v));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(items));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

pub(crate) fn parse_value(s: &str) -> Result<Value, StitchError> {
    let mut p = Parser {
        b: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return p.err("trailing data after JSON value");
    }
    Ok(v)
}

// ---------------------------------------------------------------------
// Value → StageDump
// ---------------------------------------------------------------------

fn schema<T>(msg: impl Into<String>) -> Result<T, StitchError> {
    Err(StitchError::Schema(msg.into()))
}

#[deny(clippy::indexing_slicing)]
impl Value {
    pub(crate) fn as_u64(&self, what: &str) -> Result<u64, StitchError> {
        match self {
            Value::Num(n) => Ok(*n),
            _ => schema(format!("{what}: expected number")),
        }
    }

    pub(crate) fn as_u32(&self, what: &str) -> Result<u32, StitchError> {
        let n = self.as_u64(what)?;
        u32::try_from(n).map_err(|_| StitchError::Schema(format!("{what}: {n} exceeds u32")))
    }

    pub(crate) fn as_opt_u32(&self, what: &str) -> Result<Option<u32>, StitchError> {
        match self {
            Value::Null => Ok(None),
            v => v.as_u32(what).map(Some),
        }
    }

    pub(crate) fn as_str(&self, what: &str) -> Result<&str, StitchError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => schema(format!("{what}: expected string")),
        }
    }

    pub(crate) fn as_arr(&self, what: &str) -> Result<&[Value], StitchError> {
        match self {
            Value::Arr(a) => Ok(a),
            _ => schema(format!("{what}: expected array")),
        }
    }

    pub(crate) fn get<'v>(&'v self, key: &str) -> Option<&'v Value> {
        match self {
            Value::Obj(items) => items.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn field<'v>(&'v self, key: &str) -> Result<&'v Value, StitchError> {
        self.get(key)
            .ok_or_else(|| StitchError::Schema(format!("missing field '{key}'")))
    }
}

#[deny(clippy::indexing_slicing)]
fn u32_list(v: &Value, what: &str) -> Result<Vec<u32>, StitchError> {
    v.as_arr(what)?.iter().map(|x| x.as_u32(what)).collect()
}

#[deny(clippy::indexing_slicing)]
fn u64_list(v: &Value, what: &str) -> Result<Vec<u64>, StitchError> {
    v.as_arr(what)?.iter().map(|x| x.as_u64(what)).collect()
}

#[deny(clippy::indexing_slicing)]
fn atom_of(v: &Value) -> Result<DumpAtom, StitchError> {
    let Value::Obj(items) = v else {
        return schema("atom: expected {\"Variant\": ...}");
    };
    let [(k, payload)] = items.as_slice() else {
        return schema("atom: expected exactly one variant key");
    };
    match k.as_str() {
        "Frame" => Ok(DumpAtom::Frame(payload.as_u32("Frame")?)),
        "Path" => Ok(DumpAtom::Path(u32_list(payload, "Path")?)),
        "Remote" => Ok(DumpAtom::Remote(u64_list(payload, "Remote")?)),
        other => schema(format!("atom: unknown variant '{other}'")),
    }
}

#[deny(clippy::indexing_slicing)]
fn node_of(v: &Value) -> Result<DumpNode, StitchError> {
    Ok(DumpNode {
        frame: v.field("frame")?.as_opt_u32("frame")?,
        parent: v.field("parent")?.as_opt_u32("parent")?,
        samples: v.field("samples")?.as_u64("samples")?,
        cycles: v.field("cycles")?.as_u64("cycles")?,
        calls: v.field("calls")?.as_u64("calls")?,
    })
}

#[deny(clippy::indexing_slicing)]
fn dump_of(v: &Value) -> Result<StageDump, StitchError> {
    let contexts = v
        .field("contexts")?
        .as_arr("contexts")?
        .iter()
        .map(|c| {
            Ok(DumpContext {
                atoms: c
                    .field("atoms")?
                    .as_arr("atoms")?
                    .iter()
                    .map(atom_of)
                    .collect::<Result<_, _>>()?,
            })
        })
        .collect::<Result<_, StitchError>>()?;
    let ccts = v
        .field("ccts")?
        .as_arr("ccts")?
        .iter()
        .map(|c| {
            Ok(DumpCct {
                ctx: c.field("ctx")?.as_u32("ctx")?,
                nodes: c
                    .field("nodes")?
                    .as_arr("nodes")?
                    .iter()
                    .map(node_of)
                    .collect::<Result<_, _>>()?,
            })
        })
        .collect::<Result<_, StitchError>>()?;
    let synopses = v
        .field("synopses")?
        .as_arr("synopses")?
        .iter()
        .map(|p| {
            let [raw, ctx] = p.as_arr("synopsis pair")? else {
                return schema("synopsis pair: expected [raw, ctx]");
            };
            Ok((raw.as_u64("synopsis")?, ctx.as_u32("synopsis ctx")?))
        })
        .collect::<Result<_, StitchError>>()?;
    let crosstalk_pairs = v
        .field("crosstalk_pairs")?
        .as_arr("crosstalk_pairs")?
        .iter()
        .map(|p| {
            Ok(DumpCrosstalkPair {
                waiter: p.field("waiter")?.as_u32("waiter")?,
                holder: p.field("holder")?.as_u32("holder")?,
                count: p.field("count")?.as_u64("count")?,
                total_wait: p.field("total_wait")?.as_u64("total_wait")?,
            })
        })
        .collect::<Result<_, StitchError>>()?;
    let crosstalk_waiters = v
        .field("crosstalk_waiters")?
        .as_arr("crosstalk_waiters")?
        .iter()
        .map(|w| {
            Ok(DumpCrosstalkWaiter {
                waiter: w.field("waiter")?.as_u32("waiter")?,
                count: w.field("count")?.as_u64("count")?,
                total_wait: w.field("total_wait")?.as_u64("total_wait")?,
            })
        })
        .collect::<Result<_, StitchError>>()?;
    Ok(StageDump {
        proc: v.field("proc")?.as_u32("proc")?,
        stage_name: v.field("stage_name")?.as_str("stage_name")?.to_owned(),
        frames: v
            .field("frames")?
            .as_arr("frames")?
            .iter()
            .map(|f| f.as_str("frame name").map(Arc::from))
            .collect::<Result<_, _>>()?,
        contexts,
        ccts,
        synopses,
        crosstalk_pairs,
        crosstalk_waiters,
        piggyback_bytes: v.field("piggyback_bytes")?.as_u64("piggyback_bytes")?,
        messages: v.field("messages")?.as_u64("messages")?,
    })
}

/// Parses one stage dump.
pub fn dump_from_json(s: &str) -> Result<StageDump, StitchError> {
    dump_of(&parse_value(s)?)
}

/// Parses a set of stage dumps (the on-disk profile file).
pub fn from_json(s: &str) -> Result<Vec<StageDump>, StitchError> {
    parse_value(s)?
        .as_arr("top level")?
        .iter()
        .map(dump_of)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StageDump {
        StageDump {
            proc: 3,
            stage_name: "tomcat \"quoted\"\n".into(),
            frames: vec!["main".into(), "doGet".into()],
            contexts: vec![
                DumpContext::default(),
                DumpContext {
                    atoms: vec![
                        DumpAtom::Frame(1),
                        DumpAtom::Path(vec![0, 1]),
                        DumpAtom::Remote(vec![0x0100_0001, 0x0200_0007]),
                    ]
                    .into(),
                },
            ],
            ccts: vec![DumpCct {
                ctx: 1,
                nodes: vec![
                    DumpNode {
                        frame: None,
                        parent: None,
                        samples: 1,
                        cycles: 10,
                        calls: 0,
                    },
                    DumpNode {
                        frame: Some(1),
                        parent: Some(0),
                        samples: 2,
                        cycles: 20,
                        calls: 3,
                    },
                ],
            }],
            synopses: vec![(0x0300_0001, 1)],
            crosstalk_pairs: vec![DumpCrosstalkPair {
                waiter: 1,
                holder: 0,
                count: 2,
                total_wait: 300,
            }],
            crosstalk_waiters: vec![DumpCrosstalkWaiter {
                waiter: 1,
                count: 5,
                total_wait: 500,
            }],
            piggyback_bytes: 99,
            messages: 12,
        }
    }

    #[test]
    fn roundtrip_single_and_multi() {
        let d = sample();
        let back = dump_from_json(&dump_to_json(&d)).unwrap();
        assert_eq!(d, back);
        let set = vec![d.clone(), StageDump::default(), d];
        let back = from_json(&to_json(&set)).unwrap();
        assert_eq!(set, back);
    }

    #[test]
    fn unicode_and_escapes_roundtrip() {
        let d = StageDump {
            stage_name: "héllo→世界\t\\".into(),
            ..Default::default()
        };
        let back = dump_from_json(&dump_to_json(&d)).unwrap();
        assert_eq!(d.stage_name, back.stage_name);
        // \u escapes parse too.
        let j = dump_to_json(&d).replace("héllo", "h\\u00e9llo");
        let back = dump_from_json(&j).unwrap();
        assert_eq!(d.stage_name, back.stage_name);
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[{]",
            "{\"proc\": -3}",
            "{\"proc\": 1.5}",
            "nonsense",
            "[{\"proc\":1}]",
            "{\"proc\": 99999999999999999999}",
            "[1,2,",
            "\"unterminated",
            "{\"proc\": 1} trailing",
        ] {
            assert!(from_json(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_refused_before_the_stack_runs_out() {
        // 100,000 open brackets recursed once each and overflowed the
        // stack; both file-reading entry points now refuse them.
        let deep = "[".repeat(100_000);
        let repro = crate::repro::repro_from_json(&deep).err();
        for (entry, got) in [
            ("from_json", from_json(&deep).err()),
            ("repro_from_json", repro),
        ] {
            let depth = match got {
                Some(StitchError::Json { offset, .. }) => Some(offset),
                _ => None,
            };
            assert_eq!(depth, Some(MAX_DEPTH), "{entry}: {got:?}");
        }
        // The bound itself still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_value(&ok).is_ok());
        let over = format!("[{ok}]");
        assert!(matches!(parse_value(&over), Err(StitchError::Json { .. })));
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let d = StageDump::default();
        let j = dump_to_json(&d).replacen('{', "{\n  \"future_field\": [1, {\"x\": true}],", 1);
        assert_eq!(dump_from_json(&j).unwrap(), d);
    }
}
