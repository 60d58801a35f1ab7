//! The versioned columnar binary wire format of the streaming tier.
//!
//! Everything the streaming and federation tiers ship between processes
//! — stream headers, per-epoch delta batches, federation summary
//! frames — has exactly one binary encoding, defined here (DESIGN.md
//! §16). The format is built from three layers:
//!
//! 1. **Primitives**: LEB128 varints (little-endian base-128), length-
//!    prefixed UTF-8 strings, and zigzag **delta-of-delta** columns
//!    (`DodWriter`/`DodReader`) for integer sequences that are
//!    nearly arithmetic (sorted ctx ids, bucket indices). The DoD
//!    residuals are computed in `i128`, so the column codec round-trips
//!    *arbitrary* `u64` sequences — monotonicity makes it small, but is
//!    never required for correctness.
//! 2. **Sections**: one varint-packed array per *field* (all ctx ids,
//!    then all costs, then all timestamps …) instead of one struct per
//!    event, so a decoder runs tight homogeneous loops and an encoder
//!    never pads.
//! 3. **The frame envelope**: `"WDW"` magic, a version byte, a kind
//!    byte, a `u32` little-endian body length, the body, and a trailing
//!    CRC-64 of the body ([`crate::crc64`]). [`open_frame`] verifies
//!    all five before a single body byte is parsed, so damaged input
//!    surfaces as a typed [`WireError`] — never a panic, never a silent
//!    misparse — and slots into the collector's §12 quarantine /
//!    resync machinery like any other lost or corrupt delta.
//!
//! Decoding has one reader and two storage policies. `read_delta` is
//! the only function that reads a delta section; [`BatchDecoder`] reads
//! with it into the storage of batches its caller has finished with —
//! the collector's `enqueue_wire` — and [`decode_batch`] /
//! [`decode_summary`] into fresh structs (`decode(encode(b)) == b`,
//! bit-exactly). Every consumer then applies each delta through
//! [`StageAccumulator::apply`], which validates the whole delta against
//! the accumulator's state before it mutates anything; a delta whose
//! frame stored no checksum skips only the comparison of the implied
//! checksum with itself ([`crate::delta::Unsealed`]). [`apply_batch`]
//! is only those two steps composed. [`decode_summary`] is likewise two
//! halves: [`open_summary`] verifies the envelope and reads the link
//! header, [`OpenSummary::read`] the body, so a federation receiver
//! drops a duplicate without reading its body. The sender's half is
//! [`seal_summary`], which hashes each delta once, to seal it, and
//! writes every delta checksum as implied.

use crate::crc64::crc64;
use crate::delta::{
    CctDelta, DeltaError, EpochBatch, IncomingBatch, StageAccumulator, StageDelta, StreamHeader,
    StreamStage,
};
use crate::hash::FnvHashMap;
use crate::stitch::{DumpAtom, DumpContext, DumpNode};
use crate::summary::{IncomingSummary, LeafGauges, SummaryFrame, TierSketch};
use std::fmt;
use std::sync::Arc;

/// The three magic bytes every wire frame starts with.
pub const WIRE_MAGIC: [u8; 3] = *b"WDW";

/// The format version this build encodes and accepts. A frame carrying
/// any other version is rejected with [`WireError::BadVersion`] before
/// its body is touched (version negotiation is pinned in DESIGN.md §16:
/// there is exactly one live version per deployment epoch; mixed fleets
/// quarantine foreign frames and resync rather than guess).
pub const WIRE_VERSION: u8 = 2;

/// Frame kind: a [`StreamHeader`].
pub const KIND_HEADER: u8 = 1;
/// Frame kind: an [`EpochBatch`] of stage deltas.
pub const KIND_BATCH: u8 = 2;
/// Frame kind: a federation [`SummaryFrame`].
pub const KIND_SUMMARY: u8 = 3;
// Kind bytes 4 and 5 are retired (they carried chaos repro bundles and
// bare sketch digests, which no reader ever consumed) and are never
// reused: a frame carrying either is rejected as `BadKind`.

/// Bytes of envelope before the body (magic + version + kind + length).
pub const ENVELOPE_HEAD: usize = 9;
/// Bytes of envelope after the body (the CRC-64 of the body).
pub const ENVELOPE_TAIL: usize = 8;

/// Why a wire frame could not be decoded. Every variant is a *detected*
/// failure: the decoder never panics and never returns partially
/// misparsed data.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The buffer does not start with [`WIRE_MAGIC`].
    BadMagic,
    /// The frame carries an unsupported format version.
    BadVersion(u8),
    /// The frame kind is not the one the caller expected.
    BadKind {
        /// The kind the caller asked [`open_frame`] for.
        expected: u8,
        /// The kind byte the frame carried.
        got: u8,
    },
    /// The buffer ends before the frame does.
    Truncated,
    /// The body's CRC-64 does not match the stored trailer.
    Checksum,
    /// The envelope verified but the body violates the format (a
    /// version-logic bug or a deliberately crafted frame — random
    /// damage is caught by [`WireError::Checksum`] first).
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "wire frame: bad magic"),
            WireError::BadVersion(v) => write!(f, "wire frame: unsupported version {v}"),
            WireError::BadKind { expected, got } => {
                write!(f, "wire frame: kind {got} where {expected} was expected")
            }
            WireError::Truncated => write!(f, "wire frame: truncated"),
            WireError::Checksum => write!(f, "wire frame: body checksum mismatch"),
            WireError::Malformed(what) => write!(f, "wire frame: malformed body: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Varint / string / column primitives
// ---------------------------------------------------------------------

/// Appends `v` as a LEB128 varint (7 value bits per byte, little-endian
/// groups, high bit = continuation).
pub fn put_u64(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

/// Appends `v` as a LEB128 varint (shared encoding with [`put_u64`]).
pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    put_u64(buf, v as u64);
}

fn put_u128(buf: &mut Vec<u8>, mut v: u128) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

/// Appends `s` as a varint byte length followed by its UTF-8 bytes.
pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn zigzag(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

fn unzigzag(v: u128) -> i128 {
    ((v >> 1) as i128) ^ -((v & 1) as i128)
}

/// A zero-copy cursor over one frame body.
///
/// Every read is bounds-checked and returns a typed [`WireError`]; a
/// `Reader` can therefore be driven over arbitrary bytes (the fuzz
/// suites do) without panicking.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

#[deny(clippy::indexing_slicing)]
impl<'a> Reader<'a> {
    /// A cursor over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a LEB128 varint into a `u64`, rejecting encodings that
    /// overflow 64 bits.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        // Most varints on this wire are one byte.
        if let Some(&b) = self.buf.get(self.pos).filter(|&&b| b < 0x80) {
            self.pos += 1;
            return Ok(b as u64);
        }
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && (b & 0x7f) > 1 {
                return Err(WireError::Malformed("varint overflows u64"));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::Malformed("varint too long"));
            }
        }
    }

    /// Reads a LEB128 varint and narrows it to `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        as_u32(self.u64()?)
    }

    fn u128(&mut self) -> Result<u128, WireError> {
        if let Some(&b) = self.buf.get(self.pos).filter(|&&b| b < 0x80) {
            self.pos += 1;
            return Ok(b as u128);
        }
        let mut v = 0u128;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 126 && (b & 0x7f) > 3 {
                return Err(WireError::Malformed("varint overflows u128"));
            }
            v |= ((b & 0x7f) as u128) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 126 {
                return Err(WireError::Malformed("varint too long"));
            }
        }
    }

    /// Reads a `u64` stored as 8 raw little-endian bytes (used for the
    /// stored end-to-end checksums, which must round-trip even when
    /// they do not match their content).
    pub(crate) fn fixed_u64(&mut self) -> Result<u64, WireError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Borrows the next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Reads a length-prefixed UTF-8 string, borrowing the bytes.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let n = self.count()?;
        let b = self.bytes(n)?;
        std::str::from_utf8(b).map_err(|_| WireError::Malformed("string is not UTF-8"))
    }

    /// Reads an element count and sanity-bounds it against the bytes
    /// left in the frame (every counted element occupies at least one
    /// byte), so a hostile length field cannot trigger a huge
    /// allocation before the mismatch is noticed.
    pub fn count(&mut self) -> Result<usize, WireError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(WireError::Malformed("count exceeds frame size"));
        }
        Ok(n as usize)
    }
}

fn as_u32(v: u64) -> Result<u32, WireError> {
    u32::try_from(v).map_err(|_| WireError::Malformed("value overflows u32"))
}

fn as_usize(v: u64) -> Result<usize, WireError> {
    usize::try_from(v).map_err(|_| WireError::Malformed("value overflows usize"))
}

/// `Option<u32>` on the wire as `value + 1` with `None -> 0` (the same
/// convention the delta lane checksums use).
fn opt_u32(v: u64) -> Result<Option<u32>, WireError> {
    if v == 0 {
        Ok(None)
    } else {
        as_u32(v - 1).map(Some)
    }
}

fn put_opt_u32(buf: &mut Vec<u8>, v: Option<u32>) {
    put_u64(buf, v.map_or(0, |x| x as u64 + 1));
}

/// Streaming delta-of-delta column encoder.
///
/// The first value is stored raw, the second as a zigzag first
/// difference, and every later value as the zigzag difference *of*
/// differences — near-arithmetic sequences (sorted ids, timestamps)
/// collapse to runs of single `0x00` bytes. Differences are taken in
/// `i128`, so any `u64` sequence round-trips exactly.
#[derive(Clone, Debug, Default)]
pub(crate) struct DodWriter {
    n: u64,
    prev: u64,
    prev_d: i128,
}

impl DodWriter {
    /// A fresh column encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the next column value to `buf`.
    pub fn push(&mut self, buf: &mut Vec<u8>, v: u64) {
        if self.n == 0 {
            put_u64(buf, v);
        } else {
            let d = v as i128 - self.prev as i128;
            let resid = if self.n == 1 { d } else { d - self.prev_d };
            put_u128(buf, zigzag(resid));
            self.prev_d = d;
        }
        self.prev = v;
        self.n += 1;
    }
}

/// Streaming decoder for a [`DodWriter`] column. All arithmetic is
/// checked: a crafted residual that walks the value out of `u64` range
/// is a [`WireError::Malformed`], never a wrap or a panic.
#[derive(Clone, Debug, Default)]
pub(crate) struct DodReader {
    n: u64,
    prev: u64,
    prev_d: i128,
}

impl DodReader {
    /// A fresh column decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the next column value.
    pub fn next(&mut self, r: &mut Reader<'_>) -> Result<u64, WireError> {
        let v = if self.n == 0 {
            r.u64()?
        } else {
            let resid = unzigzag(r.u128()?);
            let d = if self.n == 1 {
                resid
            } else {
                self.prev_d
                    .checked_add(resid)
                    .ok_or(WireError::Malformed("delta-of-delta overflow"))?
            };
            let val = (self.prev as i128)
                .checked_add(d)
                .ok_or(WireError::Malformed("delta-of-delta overflow"))?;
            if !(0..=u64::MAX as i128).contains(&val) {
                return Err(WireError::Malformed("column value out of u64 range"));
            }
            self.prev_d = d;
            val as u64
        };
        self.prev = v;
        self.n += 1;
        Ok(v)
    }
}

// ---------------------------------------------------------------------
// Frame envelope
// ---------------------------------------------------------------------

/// Starts a frame of `kind` in `buf`: magic, version, kind, and a
/// length placeholder. Returns the body-start offset to hand back to
/// [`end_frame`]. Body bytes are appended directly to `buf` in between.
pub fn begin_frame(buf: &mut Vec<u8>, kind: u8) -> usize {
    buf.extend_from_slice(&WIRE_MAGIC);
    buf.push(WIRE_VERSION);
    buf.push(kind);
    buf.extend_from_slice(&[0u8; 4]);
    buf.len()
}

/// Finishes the frame opened at `body_start`: backpatches the body
/// length and appends the CRC-64 of the body bytes.
pub fn end_frame(buf: &mut Vec<u8>, body_start: usize) {
    let body_len = buf.len() - body_start;
    assert!(body_len <= u32::MAX as usize, "wire frame body over 4 GiB");
    let lenb = (body_len as u32).to_le_bytes();
    buf[body_start - 4..body_start].copy_from_slice(&lenb);
    let digest = crc64(&buf[body_start..]);
    buf.extend_from_slice(&digest.to_le_bytes());
}

/// Verifies the envelope of the frame at the start of `buf` — magic,
/// version, expected kind, length, and body digest, in that order —
/// and returns a body [`Reader`] plus the total frame size (so callers
/// can walk concatenated frames). No body byte is interpreted before
/// the digest matches.
#[deny(clippy::indexing_slicing)]
pub fn open_frame(buf: &[u8], kind: u8) -> Result<(Reader<'_>, usize), WireError> {
    let Some((head, rest)) = buf.split_first_chunk::<ENVELOPE_HEAD>() else {
        return Err(WireError::Truncated);
    };
    let [m0, m1, m2, version, got, l0, l1, l2, l3] = *head;
    if [m0, m1, m2] != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    if got != kind {
        return Err(WireError::BadKind {
            expected: kind,
            got,
        });
    }
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    let total = ENVELOPE_HEAD
        .checked_add(len)
        .and_then(|t| t.checked_add(ENVELOPE_TAIL))
        .ok_or(WireError::Truncated)?;
    let Some((body, stored)) = rest
        .split_at_checked(len)
        .and_then(|(body, tail)| Some((body, tail.first_chunk::<ENVELOPE_TAIL>()?)))
    else {
        return Err(WireError::Truncated);
    };
    if crc64(body) != u64::from_le_bytes(*stored) {
        return Err(WireError::Checksum);
    }
    Ok((Reader::new(body), total))
}

// ---------------------------------------------------------------------
// Stage-delta section (shared by batch and summary frames)
// ---------------------------------------------------------------------

const ATOM_FRAME: u8 = 1;
const ATOM_PATH: u8 = 2;
const ATOM_REMOTE: u8 = 3;

// Per-delta section-presence flags. Steady-state deltas are sparse —
// most epochs bring no new interned frames, contexts, or synopses, and
// often no crosstalk — so every section is gated behind a bit and
// empty sections cost nothing. `F_CHECKSUM` marks a stored checksum
// that differs from the canonical [`StageDelta::compute_checksum`] of
// the content (a corrupt emitter, preserved verbatim for the struct
// path to quarantine); clean deltas omit the 8 bytes, which leaves the
// canonical value implied.
const F_FRAMES: u64 = 1 << 0;
const F_CONTEXTS: u64 = 1 << 1;
const F_SYNOPSES: u64 = 1 << 2;
const F_CCTS: u64 = 1 << 3;
const F_PAIRS: u64 = 1 << 4;
const F_WAITERS: u64 = 1 << 5;
const F_PIGGYBACK: u64 = 1 << 6;
const F_MESSAGES: u64 = 1 << 7;
const F_CHECKSUM: u64 = 1 << 8;
const F_ALL: u64 = (1 << 9) - 1;

fn put_atom(buf: &mut Vec<u8>, a: &DumpAtom) {
    match a {
        DumpAtom::Frame(f) => {
            buf.push(ATOM_FRAME);
            put_u32(buf, *f);
        }
        DumpAtom::Path(p) => {
            buf.push(ATOM_PATH);
            put_u64(buf, p.len() as u64);
            for &f in p {
                put_u32(buf, f);
            }
        }
        DumpAtom::Remote(chain) => {
            buf.push(ATOM_REMOTE);
            put_u64(buf, chain.len() as u64);
            for &s in chain {
                put_u64(buf, s);
            }
        }
    }
}

fn get_atom(r: &mut Reader<'_>) -> Result<DumpAtom, WireError> {
    match r.u8()? {
        ATOM_FRAME => Ok(DumpAtom::Frame(r.u32()?)),
        ATOM_PATH => {
            let n = r.count()?;
            let mut p = Vec::with_capacity(n);
            for _ in 0..n {
                p.push(r.u32()?);
            }
            Ok(DumpAtom::Path(p))
        }
        ATOM_REMOTE => {
            let n = r.count()?;
            let mut c = Vec::with_capacity(n);
            for _ in 0..n {
                c.push(r.u64()?);
            }
            Ok(DumpAtom::Remote(c))
        }
        _ => Err(WireError::Malformed("unknown context atom tag")),
    }
}

/// Builds the per-frame interned string table over a run of deltas:
/// every distinct `new_frames` string, in first-use order. Delta frame
/// sections then reference strings by table index, so a fleet of
/// replicas interning the same frame names pays each name's bytes once
/// per wire frame instead of once per stage.
fn collect_dict(deltas: &[StageDelta]) -> (Vec<&str>, FnvHashMap<&str, u64>) {
    let mut table = Vec::new();
    let mut dict = FnvHashMap::default();
    for d in deltas {
        for f in &d.new_frames {
            let s = &**f;
            if !dict.contains_key(s) {
                dict.insert(s, table.len() as u64);
                table.push(s);
            }
        }
    }
    (table, dict)
}

/// Appends a [`collect_dict`] string table: count, then the strings.
fn put_dict(buf: &mut Vec<u8>, table: &[&str]) {
    put_u64(buf, table.len() as u64);
    for s in table {
        put_str(buf, s);
    }
}

/// Reads a frame's string table, each string into one shared
/// allocation: every delta of the frame that interns a name clones
/// the table's entry, so a name costs one copy per frame, not one per
/// delta naming it.
#[deny(clippy::indexing_slicing)]
fn get_dict(r: &mut Reader<'_>) -> Result<Vec<Arc<str>>, WireError> {
    let n = r.count()?;
    let mut table = Vec::with_capacity(n);
    for _ in 0..n {
        table.push(Arc::from(r.str()?));
    }
    Ok(table)
}

/// Appends one delta's columnar section to a frame body. Layout (all
/// varints unless noted): stage, seq, section-presence flags; then
/// only the sections whose flag bit is set — frame strings; contexts
/// (tagged atoms — inherently ragged, so row-encoded); synopsis ctx
/// column (DoD) + raw column; CCT header columns (ctx DoD, baseline
/// sizes, new-node counts, grown counts) followed by the node field
/// columns across *all* CCTs (frame+1, parent+1, samples, cycles,
/// calls) and the grown field columns (index, Δsamples, Δcycles,
/// Δcalls); crosstalk pair columns (waiter DoD, holder, count, wait);
/// waiter columns; piggyback bytes; messages; and — only when it
/// differs from the canonical recomputable value — the stored
/// end-to-end checksum as 8 raw bytes (a wrong checksum must
/// round-trip verbatim: the accumulator revalidates it, which is what
/// the damage matrix locks).
///
/// `canonical` is the caller's vouch that `d.checksum` is the value
/// [`StageDelta::compute_checksum`] gives (it has just sealed `d`), so
/// the checksum is elided without hashing the content again; without
/// it, the content is hashed to decide.
pub(crate) fn put_delta(
    buf: &mut Vec<u8>,
    d: &StageDelta,
    dict: &FnvHashMap<&str, u64>,
    canonical: bool,
) {
    let mut flags = 0u64;
    if !d.new_frames.is_empty() {
        flags |= F_FRAMES;
    }
    if !d.new_contexts.is_empty() {
        flags |= F_CONTEXTS;
    }
    if !d.new_synopses.is_empty() {
        flags |= F_SYNOPSES;
    }
    if !d.ccts.is_empty() {
        flags |= F_CCTS;
    }
    if !d.pairs.is_empty() {
        flags |= F_PAIRS;
    }
    if !d.waiters.is_empty() {
        flags |= F_WAITERS;
    }
    if d.piggyback_bytes != 0 {
        flags |= F_PIGGYBACK;
    }
    if d.messages != 0 {
        flags |= F_MESSAGES;
    }
    if !canonical && d.checksum != d.compute_checksum() {
        flags |= F_CHECKSUM;
    }
    put_u64(buf, d.stage as u64);
    put_u64(buf, d.seq);
    put_u64(buf, flags);
    if flags & F_FRAMES != 0 {
        put_u64(buf, d.new_frames.len() as u64);
        for f in &d.new_frames {
            put_u64(buf, dict[&**f]);
        }
    }
    if flags & F_CONTEXTS != 0 {
        put_u64(buf, d.new_contexts.len() as u64);
        for c in &d.new_contexts {
            put_u64(buf, c.atoms.len() as u64);
            for a in c.atoms.iter() {
                put_atom(buf, a);
            }
        }
    }
    if flags & F_SYNOPSES != 0 {
        put_u64(buf, d.new_synopses.len() as u64);
        let mut w = DodWriter::new();
        for &(_, ctx) in &d.new_synopses {
            w.push(buf, ctx as u64);
        }
        for &(raw, _) in &d.new_synopses {
            put_u64(buf, raw);
        }
    }
    if flags & F_CCTS != 0 {
        put_u64(buf, d.ccts.len() as u64);
        let mut w = DodWriter::new();
        for c in &d.ccts {
            w.push(buf, c.ctx as u64);
        }
        for c in &d.ccts {
            put_u64(buf, c.nodes_before as u64);
        }
        for c in &d.ccts {
            put_u64(buf, c.new_nodes.len() as u64);
        }
        for c in &d.ccts {
            put_u64(buf, c.grown.len() as u64);
        }
        for c in &d.ccts {
            for n in &c.new_nodes {
                put_opt_u32(buf, n.frame);
            }
        }
        for c in &d.ccts {
            for n in &c.new_nodes {
                put_opt_u32(buf, n.parent);
            }
        }
        for c in &d.ccts {
            for n in &c.new_nodes {
                put_u64(buf, n.samples);
            }
        }
        for c in &d.ccts {
            for n in &c.new_nodes {
                put_u64(buf, n.cycles);
            }
        }
        for c in &d.ccts {
            for n in &c.new_nodes {
                put_u64(buf, n.calls);
            }
        }
        for c in &d.ccts {
            for &(i, ..) in &c.grown {
                put_u64(buf, i as u64);
            }
        }
        for c in &d.ccts {
            for &(_, s, ..) in &c.grown {
                put_u64(buf, s);
            }
        }
        for c in &d.ccts {
            for &(_, _, cy, _) in &c.grown {
                put_u64(buf, cy);
            }
        }
        for c in &d.ccts {
            for &(.., ca) in &c.grown {
                put_u64(buf, ca);
            }
        }
    }
    if flags & F_PAIRS != 0 {
        put_u64(buf, d.pairs.len() as u64);
        let mut w = DodWriter::new();
        for p in &d.pairs {
            w.push(buf, p.waiter as u64);
        }
        for p in &d.pairs {
            put_u64(buf, p.holder as u64);
        }
        for p in &d.pairs {
            put_u64(buf, p.count);
        }
        for p in &d.pairs {
            put_u64(buf, p.total_wait);
        }
    }
    if flags & F_WAITERS != 0 {
        put_u64(buf, d.waiters.len() as u64);
        let mut w = DodWriter::new();
        for x in &d.waiters {
            w.push(buf, x.waiter as u64);
        }
        for x in &d.waiters {
            put_u64(buf, x.count);
        }
        for x in &d.waiters {
            put_u64(buf, x.total_wait);
        }
    }
    if flags & F_PIGGYBACK != 0 {
        put_u64(buf, d.piggyback_bytes);
    }
    if flags & F_MESSAGES != 0 {
        put_u64(buf, d.messages);
    }
    if flags & F_CHECKSUM != 0 {
        buf.extend_from_slice(&d.checksum.to_le_bytes());
    }
}

/// Reads one delta section into `d`, overwriting every field. Each
/// column goes straight into the list it belongs to — a count sizes
/// the list, every column then fills one field through `iter_mut` — so
/// no column is held on the side and nothing is indexed. Frame names
/// are clones of `table`'s entries; each context's atoms are read into
/// `atoms` and moved into one allocation of their exact size. The CCT
/// increments `d` already holds are overwritten where they stand,
/// capacity and all, and only the ones past the new count go. A delta whose
/// keyed lists are not in canonical form ([`StageDelta::check_order`])
/// is malformed. Returns whether the section stored a checksum; when it
/// did not, `d.checksum` is left 0: the canonical value is implied, for
/// the caller to fill in or to vouch for.
#[deny(clippy::indexing_slicing)]
fn read_delta(
    r: &mut Reader<'_>,
    table: &[Arc<str>],
    d: &mut StageDelta,
    atoms: &mut Vec<DumpAtom>,
) -> Result<bool, WireError> {
    d.stage = as_usize(r.u64()?)?;
    d.seq = r.u64()?;
    let flags = r.u64()?;
    if flags & !F_ALL != 0 {
        return Err(WireError::Malformed("unknown delta section flag"));
    }
    // A section whose flag is clear is a section of no rows.
    let rows = |r: &mut Reader<'_>, bit| if flags & bit != 0 { r.count() } else { Ok(0) };
    let nf = rows(r, F_FRAMES)?;
    d.new_frames.clear();
    d.new_frames.reserve(nf);
    for _ in 0..nf {
        let s = table
            .get(as_usize(r.u64()?)?)
            .ok_or(WireError::Malformed("frame string index out of range"))?;
        d.new_frames.push(Arc::clone(s));
    }
    let ncx = rows(r, F_CONTEXTS)?;
    d.new_contexts.clear();
    d.new_contexts.reserve(ncx);
    for _ in 0..ncx {
        let na = r.count()?;
        atoms.clear();
        atoms.reserve(na);
        for _ in 0..na {
            atoms.push(get_atom(r)?);
        }
        d.new_contexts.push(DumpContext {
            atoms: atoms.drain(..).collect(),
        });
    }
    d.new_synopses.clear();
    d.new_synopses.resize(rows(r, F_SYNOPSES)?, (0, 0));
    let mut dr = DodReader::new();
    for s in &mut d.new_synopses {
        s.1 = as_u32(dr.next(r)?)?;
    }
    for s in &mut d.new_synopses {
        s.0 = r.u64()?;
    }
    d.ccts.resize_with(rows(r, F_CCTS)?, CctDelta::default);
    let mut dr = DodReader::new();
    for c in &mut d.ccts {
        c.ctx = as_u32(dr.next(r)?)?;
    }
    for c in &mut d.ccts {
        c.nodes_before = r.u32()?;
    }
    let node = DumpNode::default();
    let new = read_counts(r, &mut d.ccts, |c, n| c.new_nodes.resize(n, node))?;
    let grown = read_counts(r, &mut d.ccts, |c, n| c.grown.resize(n, (0, 0, 0, 0)))?;
    if new > r.remaining() as u64 || grown > r.remaining() as u64 {
        return Err(OVERSIZE);
    }
    for n in d.ccts.iter_mut().flat_map(|c| &mut c.new_nodes) {
        n.frame = opt_u32(r.u64()?)?;
    }
    for n in d.ccts.iter_mut().flat_map(|c| &mut c.new_nodes) {
        n.parent = opt_u32(r.u64()?)?;
    }
    for n in d.ccts.iter_mut().flat_map(|c| &mut c.new_nodes) {
        n.samples = r.u64()?;
    }
    for n in d.ccts.iter_mut().flat_map(|c| &mut c.new_nodes) {
        n.cycles = r.u64()?;
    }
    for n in d.ccts.iter_mut().flat_map(|c| &mut c.new_nodes) {
        n.calls = r.u64()?;
    }
    for g in d.ccts.iter_mut().flat_map(|c| &mut c.grown) {
        g.0 = r.u32()?;
    }
    for g in d.ccts.iter_mut().flat_map(|c| &mut c.grown) {
        g.1 = r.u64()?;
    }
    for g in d.ccts.iter_mut().flat_map(|c| &mut c.grown) {
        g.2 = r.u64()?;
    }
    for g in d.ccts.iter_mut().flat_map(|c| &mut c.grown) {
        g.3 = r.u64()?;
    }
    d.pairs.clear();
    d.pairs.resize(rows(r, F_PAIRS)?, Default::default());
    let mut dr = DodReader::new();
    for p in &mut d.pairs {
        p.waiter = as_u32(dr.next(r)?)?;
    }
    for p in &mut d.pairs {
        p.holder = r.u32()?;
    }
    for p in &mut d.pairs {
        p.count = r.u64()?;
    }
    for p in &mut d.pairs {
        p.total_wait = r.u64()?;
    }
    d.waiters.clear();
    d.waiters.resize(rows(r, F_WAITERS)?, Default::default());
    let mut dr = DodReader::new();
    for w in &mut d.waiters {
        w.waiter = as_u32(dr.next(r)?)?;
    }
    for w in &mut d.waiters {
        w.count = r.u64()?;
    }
    for w in &mut d.waiters {
        w.total_wait = r.u64()?;
    }
    d.piggyback_bytes = if flags & F_PIGGYBACK != 0 {
        r.u64()?
    } else {
        0
    };
    d.messages = if flags & F_MESSAGES != 0 { r.u64()? } else { 0 };
    let stored = flags & F_CHECKSUM != 0;
    d.checksum = if stored { r.fixed_u64()? } else { 0 };
    d.check_order().map_err(WireError::Malformed)?;
    Ok(stored)
}

const OVERSIZE: WireError = WireError::Malformed("count exceeds frame size");

/// Reads one per-CCT count column, handing each count to `size`, and
/// returns its total. A count is bounded by the bytes left before it
/// is used, and sizes its list only while the running total fits them
/// too: a total that does not is refused by the caller once both count
/// columns are read, and must size nothing on the way there.
#[deny(clippy::indexing_slicing)]
fn read_counts(
    r: &mut Reader<'_>,
    ccts: &mut [CctDelta],
    size: impl Fn(&mut CctDelta, usize),
) -> Result<u64, WireError> {
    let mut total = 0u64;
    for c in ccts {
        let n = r.u64()?;
        if n > r.remaining() as u64 {
            return Err(OVERSIZE);
        }
        total = total.saturating_add(n);
        let n = as_usize(n)?;
        if total <= r.remaining() as u64 {
            size(c, n);
        }
    }
    Ok(total)
}

/// Decodes [`KIND_BATCH`] frames into recycled storage: a batch handed
/// back through [`BatchDecoder::recycle`] is kept whole, and the next
/// [`BatchDecoder::decode`] reads over its deltas and their CCT
/// increments where they stand, so a steady stream is read without
/// allocating per delta. A fresh decoder has nothing to reuse and reads
/// into fresh storage, which is all [`decode_batch`] is.
#[derive(Debug, Default)]
pub struct BatchDecoder {
    /// The delta lists of recycled batches, content and all (every
    /// field is overwritten before it is read again): at most as many
    /// as were decoded and not yet handed back at once.
    spares: Vec<Vec<StageDelta>>,
    /// One atom list, empty (capacity, never content).
    atoms: Vec<DumpAtom>,
}

#[deny(clippy::indexing_slicing)]
impl BatchDecoder {
    /// Decodes the frame at the start of `buf`, returning the batch and
    /// the total frame size consumed. A frame that stored no checksum —
    /// every clean frame — comes out unsealed, never hashed; one that
    /// stored any has its implied checksums filled in, all to be
    /// verified. A refused frame drops the spare batch it had drawn.
    pub fn decode(&mut self, buf: &[u8]) -> Result<(IncomingBatch, usize), WireError> {
        let (mut r, consumed) = open_frame(buf, KIND_BATCH)?;
        let (epoch, seq, end) = (r.u64()?, r.u64()?, r.u64()?);
        let table = get_dict(&mut r)?;
        let mut deltas = self.spares.pop().unwrap_or_default();
        deltas.resize_with(r.count()?, StageDelta::default);
        let mut first_stored = None;
        for (i, d) in deltas.iter_mut().enumerate() {
            if read_delta(&mut r, &table, d, &mut self.atoms)? {
                first_stored.get_or_insert(i);
            } else if first_stored.is_some() {
                d.seal();
            }
        }
        // Every delta before the frame's first stored checksum elided
        // its own.
        if let Some(k) = first_stored {
            deltas.iter_mut().take(k).for_each(StageDelta::seal);
        }
        if r.remaining() != 0 {
            return Err(WireError::Malformed("trailing bytes in batch body"));
        }
        let batch = EpochBatch {
            epoch,
            seq,
            end,
            deltas,
        };
        let unsealed = first_stored.is_none();
        Ok((IncomingBatch { batch, unsealed }, consumed))
    }

    /// Takes a decoded batch back, whole, for a later decode to read
    /// over. A sealed batch (a struct batch, a frame that stored a
    /// checksum) is dropped: an unsealed batch comes only from
    /// `decode`, which bounds the spares by the batches out at once.
    pub fn recycle(&mut self, batch: IncomingBatch) {
        if batch.unsealed {
            self.spares.push(batch.batch.deltas);
        }
    }
}

// ---------------------------------------------------------------------
// Frame codecs: header, batch, summary, sketch, repro
// ---------------------------------------------------------------------

/// Encodes a [`StreamHeader`] as a [`KIND_HEADER`] frame.
pub fn encode_header(h: &StreamHeader) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    let body = begin_frame(&mut buf, KIND_HEADER);
    put_u64(&mut buf, h.stages.len() as u64);
    for s in &h.stages {
        put_u64(&mut buf, s.proc as u64);
        put_str(&mut buf, &s.stage_name);
    }
    end_frame(&mut buf, body);
    buf
}

/// Decodes a [`KIND_HEADER`] frame, returning the header and the total
/// frame size consumed from `buf`.
pub fn decode_header(buf: &[u8]) -> Result<(StreamHeader, usize), WireError> {
    let (mut r, consumed) = open_frame(buf, KIND_HEADER)?;
    let n = r.count()?;
    let mut stages = Vec::with_capacity(n);
    for _ in 0..n {
        stages.push(StreamStage {
            proc: r.u32()?,
            stage_name: r.str()?.to_owned(),
        });
    }
    if r.remaining() != 0 {
        return Err(WireError::Malformed("trailing bytes in header body"));
    }
    Ok((StreamHeader { stages }, consumed))
}

/// Encodes an [`EpochBatch`] as a [`KIND_BATCH`] frame.
pub fn encode_batch(b: &EpochBatch) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    let body = begin_frame(&mut buf, KIND_BATCH);
    put_u64(&mut buf, b.epoch);
    put_u64(&mut buf, b.seq);
    put_u64(&mut buf, b.end);
    let (table, dict) = collect_dict(&b.deltas);
    put_dict(&mut buf, &table);
    put_u64(&mut buf, b.deltas.len() as u64);
    for d in &b.deltas {
        put_delta(&mut buf, d, &dict, false);
    }
    end_frame(&mut buf, body);
    buf
}

/// Decodes a [`KIND_BATCH`] frame into the [`EpochBatch`] structs,
/// returning the batch and the total frame size consumed: a
/// [`BatchDecoder`] with nothing to recycle, and every implied checksum
/// filled in.
pub fn decode_batch(buf: &[u8]) -> Result<(EpochBatch, usize), WireError> {
    let (batch, consumed) = BatchDecoder::default().decode(buf)?;
    Ok((batch.seal(), consumed))
}

/// Appends a sparse bucket list (ascending indices) as an index DoD
/// column plus a count column — the shared tail of the sketch and
/// summary codecs.
pub(crate) fn put_buckets(buf: &mut Vec<u8>, buckets: &[(u32, u64)]) {
    put_u64(buf, buckets.len() as u64);
    let mut w = DodWriter::new();
    for &(b, _) in buckets {
        w.push(buf, b as u64);
    }
    for &(_, c) in buckets {
        put_u64(buf, c);
    }
}

/// Reads a [`put_buckets`] bucket list back.
#[deny(clippy::indexing_slicing)]
pub(crate) fn get_buckets(r: &mut Reader<'_>) -> Result<Vec<(u32, u64)>, WireError> {
    let mut out = vec![(0, 0); r.count()?];
    let mut dr = DodReader::new();
    for b in &mut out {
        b.0 = as_u32(dr.next(r)?)?;
    }
    for b in &mut out {
        b.1 = r.u64()?;
    }
    Ok(out)
}

/// Encodes a federation [`SummaryFrame`] as a [`KIND_SUMMARY`] frame —
/// the byte form the federation links ship. Deltas reuse the batch
/// delta section; freight (sketches, leaf mass, gauges) is columnar.
/// Each delta's stored checksum is compared with its content, and
/// written only when they differ.
pub fn encode_summary(f: &SummaryFrame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    put_summary(&mut buf, f, false);
    buf
}

/// Seals `f` and appends its [`KIND_SUMMARY`] frame to `buf`: stores
/// each delta's checksum, then the frame's, which folds them in, and
/// writes every delta's as implied. This is the sender's one hash of
/// each delta's content; the receiver's is the decoder's fill-in of
/// the implied value, which the frame's checksum verifies. Every
/// `checksum` in `f` is overwritten.
pub fn seal_summary(f: &mut SummaryFrame, buf: &mut Vec<u8>) {
    f.deltas.iter_mut().for_each(StageDelta::seal);
    f.checksum = f.compute_checksum();
    put_summary(buf, f, true);
}

/// Appends `f`'s frame to `buf`; `canonical` as [`put_delta`] takes it,
/// for every delta.
fn put_summary(buf: &mut Vec<u8>, f: &SummaryFrame, canonical: bool) {
    let body = begin_frame(buf, KIND_SUMMARY);
    put_u64(buf, f.src as u64);
    put_u64(buf, f.seq);
    put_u64(buf, f.first_epoch);
    put_u64(buf, f.last_epoch);
    put_u64(buf, f.end);
    let (table, dict) = collect_dict(&f.deltas);
    put_dict(buf, &table);
    put_u64(buf, f.deltas.len() as u64);
    for d in &f.deltas {
        put_delta(buf, d, &dict, canonical);
    }
    put_u64(buf, f.sketches.len() as u64);
    for s in &f.sketches {
        put_str(buf, &s.tier);
        put_u64(buf, s.max);
        put_buckets(buf, &s.buckets);
    }
    put_u64(buf, f.leaf_mass.len() as u64);
    let mut w = DodWriter::new();
    for &(leaf, _) in &f.leaf_mass {
        w.push(buf, leaf as u64);
    }
    for &(_, m) in &f.leaf_mass {
        put_u64(buf, m);
    }
    put_u64(buf, f.gauges.len() as u64);
    let mut w = DodWriter::new();
    for &(leaf, _) in &f.gauges {
        w.push(buf, leaf as u64);
    }
    for &(_, g) in &f.gauges {
        put_u64(buf, g.last_epoch);
    }
    for &(_, g) in &f.gauges {
        put_u64(buf, g.events);
    }
    for &(_, g) in &f.gauges {
        put_u64(buf, g.mass);
    }
    for &(_, g) in &f.gauges {
        put_u64(buf, g.lag_frames);
    }
    for &(_, g) in &f.gauges {
        put_u64(buf, g.checkpoints);
    }
    for &(_, g) in &f.gauges {
        put_u64(buf, g.recoveries);
    }
    buf.extend_from_slice(&f.checksum.to_le_bytes());
    end_frame(buf, body);
}

/// A [`KIND_SUMMARY`] frame whose envelope has verified and whose link
/// header — `src` and `seq`, the first two body fields — has been read;
/// the rest of the body has not. A receiver decides from the header
/// whether the frame is a duplicate before it pays for
/// [`OpenSummary::read`].
#[derive(Clone, Debug)]
pub struct OpenSummary<'a> {
    /// Emitting node id.
    pub src: u32,
    /// Per-link frame sequence number.
    pub seq: u64,
    /// The body, positioned after `seq`.
    rest: Reader<'a>,
    /// Total frame size.
    consumed: usize,
}

/// Opens a [`KIND_SUMMARY`] frame: verifies the envelope (the frame's
/// one digest pass) and reads `src` and `seq`.
#[deny(clippy::indexing_slicing)]
pub fn open_summary(buf: &[u8]) -> Result<OpenSummary<'_>, WireError> {
    let (mut rest, consumed) = open_frame(buf, KIND_SUMMARY)?;
    let src = rest.u32()?;
    let seq = rest.u64()?;
    Ok(OpenSummary {
        src,
        seq,
        rest,
        consumed,
    })
}

#[deny(clippy::indexing_slicing)]
impl OpenSummary<'_> {
    /// Reads the rest of the body, returning the frame and the total
    /// bytes consumed. Every delta checksum comes out filled in: stored
    /// ones verbatim, implied ones computed here, which is the
    /// receiver's one hash of each delta's content; the frame's
    /// checksum, which folds them in, then verifies them. The stored
    /// end-to-end checksum round-trips verbatim; callers still run
    /// [`SummaryFrame::verify`] on it.
    pub fn read(self) -> Result<(IncomingSummary, usize), WireError> {
        let OpenSummary {
            src,
            seq,
            rest: mut r,
            consumed,
        } = self;
        let first_epoch = r.u64()?;
        let last_epoch = r.u64()?;
        let end = r.u64()?;
        let table = get_dict(&mut r)?;
        let nd = r.count()?;
        let mut deltas = Vec::with_capacity(nd);
        let mut atoms = Vec::new();
        let mut unsealed = true;
        for _ in 0..nd {
            let mut d = StageDelta::default();
            if read_delta(&mut r, &table, &mut d, &mut atoms)? {
                unsealed = false;
            } else {
                d.seal();
            }
            deltas.push(d);
        }
        let nsk = r.count()?;
        let mut sketches = Vec::with_capacity(nsk);
        for _ in 0..nsk {
            let tier = r.str()?.to_owned();
            let max = r.u64()?;
            let buckets = get_buckets(&mut r)?;
            sketches.push(TierSketch { tier, max, buckets });
        }
        let mut leaf_mass = vec![(0, 0); r.count()?];
        let mut dr = DodReader::new();
        for m in &mut leaf_mass {
            m.0 = as_u32(dr.next(&mut r)?)?;
        }
        for m in &mut leaf_mass {
            m.1 = r.u64()?;
        }
        let mut gauges = vec![(0, LeafGauges::default()); r.count()?];
        let mut dr = DodReader::new();
        for g in &mut gauges {
            g.0 = as_u32(dr.next(&mut r)?)?;
        }
        for g in &mut gauges {
            g.1.last_epoch = r.u64()?;
        }
        for g in &mut gauges {
            g.1.events = r.u64()?;
        }
        for g in &mut gauges {
            g.1.mass = r.u64()?;
        }
        for g in &mut gauges {
            g.1.lag_frames = r.u64()?;
        }
        for g in &mut gauges {
            g.1.checkpoints = r.u64()?;
        }
        for g in &mut gauges {
            g.1.recoveries = r.u64()?;
        }
        let checksum = r.fixed_u64()?;
        if r.remaining() != 0 {
            return Err(WireError::Malformed("trailing bytes in summary body"));
        }
        let frame = SummaryFrame {
            src,
            seq,
            first_epoch,
            last_epoch,
            end,
            deltas,
            sketches,
            leaf_mass,
            gauges,
            checksum,
        };
        Ok((IncomingSummary { frame, unsealed }, consumed))
    }
}

/// Decodes a [`KIND_SUMMARY`] frame, returning the frame and the total
/// bytes consumed: [`open_summary`], then [`OpenSummary::read`].
pub fn decode_summary(buf: &[u8]) -> Result<(SummaryFrame, usize), WireError> {
    let (f, consumed) = open_summary(buf)?.read()?;
    Ok((f.into_frame(), consumed))
}

// ---------------------------------------------------------------------
// Decode-and-apply, for callers holding bare accumulators
// ---------------------------------------------------------------------

/// What [`apply_batch`] learned about the frame it applied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WireBatchInfo {
    /// Epoch index the batch covers.
    pub epoch: u64,
    /// Global batch sequence number.
    pub seq: u64,
    /// Virtual time at the end of the epoch.
    pub end: u64,
    /// Total change events applied (matches [`EpochBatch::events`]).
    pub events: u64,
    /// Total frame bytes consumed from the buffer.
    pub consumed: usize,
}

impl From<DeltaError> for WireError {
    fn from(e: DeltaError) -> WireError {
        WireError::Malformed(match e {
            DeltaError::Checksum { .. } => "delta checksum mismatch",
            DeltaError::SeqGap { .. } => "delta sequence gap",
            DeltaError::Inconsistent { what, .. } => what,
        })
    }
}

/// [`BatchDecoder::decode`], then each delta under the `apply` it is
/// due — the same two steps the collector's ingest takes, minus the
/// recycling, composed for a caller that holds bare accumulators. No
/// product path calls this; it stays because the `benchmark/` package's
/// layer probe times it by name (`wire.apply_ms`) and that package may
/// not change with this crate. Each delta is validated before it
/// mutates, but the batch is not one transaction: an error on delta *k*
/// leaves deltas before *k* applied.
pub fn apply_batch(accs: &mut [StageAccumulator], buf: &[u8]) -> Result<WireBatchInfo, WireError> {
    let (batch, consumed) = BatchDecoder::default().decode(buf)?;
    for d in batch.deltas() {
        let acc = accs
            .get_mut(d.delta().stage)
            .ok_or(WireError::Malformed("stage index out of range"))?;
        d.apply_to(acc)?;
    }
    let b = batch.batch();
    Ok(WireBatchInfo {
        epoch: b.epoch,
        seq: b.seq,
        end: b.end,
        events: b.events(),
        consumed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{diff_dump, Incoming};
    use crate::sketch::QuantileSketch;
    use crate::stitch::{DumpCct, DumpCrosstalkPair, DumpCrosstalkWaiter, StageDump};
    use crate::summary::seal_delta;

    fn node(frame: Option<u32>, parent: Option<u32>, cycles: u64) -> DumpNode {
        DumpNode {
            frame,
            parent,
            samples: cycles / 100,
            cycles,
            calls: 1,
        }
    }

    fn base_dump() -> StageDump {
        StageDump {
            proc: 1,
            stage_name: "app".into(),
            frames: vec!["main".into(), "handle \"x\"".into()],
            contexts: vec![
                DumpContext {
                    atoms: vec![].into(),
                },
                DumpContext {
                    atoms: vec![
                        DumpAtom::Frame(1),
                        DumpAtom::Path(vec![0, 1]),
                        DumpAtom::Remote(vec![0x0100_0001, u64::MAX]),
                    ]
                    .into(),
                },
            ],
            ccts: vec![DumpCct {
                ctx: 1,
                nodes: vec![node(None, None, 100), node(Some(1), Some(0), 300)],
            }],
            synopses: vec![(0x0100_0001, 1)],
            crosstalk_pairs: vec![DumpCrosstalkPair {
                waiter: 1,
                holder: 0,
                count: 2,
                total_wait: 50,
            }],
            crosstalk_waiters: vec![DumpCrosstalkWaiter {
                waiter: 1,
                count: 4,
                total_wait: 50,
            }],
            piggyback_bytes: 8,
            messages: 2,
        }
    }

    fn grown_dump() -> StageDump {
        let mut d = base_dump();
        d.frames.push("query".into());
        d.contexts.push(DumpContext {
            atoms: vec![DumpAtom::Remote(vec![0x0100_0001])].into(),
        });
        d.ccts[0].nodes[1].samples += 2;
        d.ccts[0].nodes[1].cycles += 120;
        d.ccts[0].nodes.push(node(Some(2), Some(1), 40));
        d.ccts.insert(
            0,
            DumpCct {
                ctx: 0,
                nodes: vec![node(None, None, 10)],
            },
        );
        d.synopses.push((0x0100_0002, 2));
        d.crosstalk_pairs[0].count += 1;
        d.crosstalk_pairs[0].total_wait += 25;
        d.crosstalk_waiters.push(DumpCrosstalkWaiter {
            waiter: 2,
            count: 1,
            total_wait: 0,
        });
        d.piggyback_bytes += 4;
        d.messages += 1;
        d
    }

    fn sample_batches() -> (StreamHeader, Vec<EpochBatch>) {
        let header = StreamHeader {
            stages: vec![StreamStage {
                proc: 1,
                stage_name: "app".into(),
            }],
        };
        let a = base_dump();
        let b = grown_dump();
        let d0 = diff_dump(0, 0, None, &a).unwrap();
        let d1 = diff_dump(0, 1, Some(&a), &b).unwrap();
        let batches = vec![
            EpochBatch {
                epoch: 0,
                seq: 0,
                end: 100,
                deltas: vec![d0],
            },
            EpochBatch {
                epoch: 1,
                seq: 1,
                end: 200,
                deltas: vec![d1],
            },
        ];
        (header, batches)
    }

    #[test]
    fn varints_round_trip() {
        let mut buf = Vec::new();
        let vals = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &vals {
            put_u64(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for &v in &vals {
            assert_eq!(r.u64().unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
        // An 11-byte continuation run cannot be a u64.
        let mut r = Reader::new(&[0x80; 11]);
        assert!(r.u64().is_err());
        // Varint value bits past 64 are rejected, not truncated.
        let mut r = Reader::new(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02]);
        assert!(r.u64().is_err());
    }

    #[test]
    fn dod_round_trips_arbitrary_sequences() {
        let seqs: &[&[u64]] = &[
            &[],
            &[0],
            &[u64::MAX],
            &[1, 2, 3, 4, 5],
            &[5, 4, 3, 0, u64::MAX, 0, u64::MAX],
            &[100, 100, 100, 7, 9, 11, 13],
        ];
        for seq in seqs {
            let mut buf = Vec::new();
            let mut w = DodWriter::new();
            for &v in *seq {
                w.push(&mut buf, v);
            }
            let mut r = Reader::new(&buf);
            let mut dr = DodReader::new();
            for &v in *seq {
                assert_eq!(dr.next(&mut r).unwrap(), v, "seq {seq:?}");
            }
            assert_eq!(r.remaining(), 0);
        }
        // An arithmetic run costs one byte per element after the head.
        let mut buf = Vec::new();
        let mut w = DodWriter::new();
        for v in (1000..1100).map(|x| x * 8) {
            w.push(&mut buf, v);
        }
        assert!(
            buf.len() <= 2 + 2 + 98,
            "dod run not compact: {}",
            buf.len()
        );
    }

    #[test]
    fn envelope_rejects_damage() {
        let (header, _) = sample_batches();
        let frame = encode_header(&header);
        assert_eq!(decode_header(&frame).unwrap().0, header);

        let mut bad = frame.clone();
        bad[0] = b'X';
        assert_eq!(decode_header(&bad), Err(WireError::BadMagic));
        let mut bad = frame.clone();
        bad[3] = 9;
        assert_eq!(decode_header(&bad), Err(WireError::BadVersion(9)));
        assert_eq!(
            open_frame(&frame, KIND_BATCH).unwrap_err(),
            WireError::BadKind {
                expected: KIND_BATCH,
                got: KIND_HEADER
            }
        );
        for cut in [0, 5, frame.len() - 1] {
            assert_eq!(
                decode_header(&frame[..cut]),
                Err(WireError::Truncated),
                "cut {cut}"
            );
        }
        // Every single-bit flip in the body or trailer is detected.
        for byte in ENVELOPE_HEAD..frame.len() {
            let mut bad = frame.clone();
            bad[byte] ^= 0x40;
            assert_eq!(decode_header(&bad), Err(WireError::Checksum), "byte {byte}");
        }
    }

    #[test]
    fn batch_round_trip_is_exact() {
        let (_, batches) = sample_batches();
        for b in &batches {
            let frame = encode_batch(b);
            let (back, consumed) = decode_batch(&frame).unwrap();
            assert_eq!(&back, b);
            assert_eq!(consumed, frame.len());
        }
        // Concatenated frames parse in sequence via `consumed`.
        let stream: Vec<u8> = batches.iter().flat_map(encode_batch).collect();
        let mut at = 0;
        for b in &batches {
            let (back, consumed) = decode_batch(&stream[at..]).unwrap();
            assert_eq!(&back, b);
            at += consumed;
        }
        assert_eq!(at, stream.len());
    }

    #[test]
    fn bad_stored_checksum_round_trips_for_the_struct_path() {
        // A delta whose *end-to-end* checksum is wrong must survive the
        // wire unchanged so the accumulator still quarantines it.
        let (_, mut batches) = sample_batches();
        batches[0].deltas[0].checksum ^= 1;
        let frame = encode_batch(&batches[0]);
        let (back, _) = decode_batch(&frame).unwrap();
        assert_eq!(back, batches[0]);
    }

    #[test]
    fn apply_batch_matches_struct_apply() {
        let (header, batches) = sample_batches();
        let mut fast: Vec<StageAccumulator> =
            header.stages.iter().map(StageAccumulator::new).collect();
        let mut slow: Vec<StageAccumulator> =
            header.stages.iter().map(StageAccumulator::new).collect();
        let mut events = 0;
        for b in &batches {
            let frame = encode_batch(b);
            let info = apply_batch(&mut fast, &frame).unwrap();
            assert_eq!(
                (info.epoch, info.seq, info.end, info.consumed),
                (b.epoch, b.seq, b.end, frame.len())
            );
            events += info.events;
            for d in &b.deltas {
                slow[d.stage].apply(d).unwrap();
            }
        }
        assert_eq!(events, batches.iter().map(|b| b.events()).sum::<u64>());
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f.to_dump(), s.to_dump());
            assert_eq!(f.next_seq(), s.next_seq());
        }
    }

    #[test]
    fn apply_batch_rejects_inconsistent_frames() {
        let (header, batches) = sample_batches();
        let mk = || -> Vec<StageAccumulator> {
            header.stages.iter().map(StageAccumulator::new).collect()
        };
        // Sequence gap: the second batch cannot apply first.
        let mut accs = mk();
        assert!(apply_batch(&mut accs, &encode_batch(&batches[1])).is_err());
        // Stage out of range.
        let mut b = batches[0].clone();
        b.deltas[0].stage = 7;
        assert!(apply_batch(&mut mk(), &encode_batch(&b)).is_err());
        // Baseline mismatch.
        let mut b = batches[1].clone();
        b.deltas[0].ccts[0].nodes_before += 1;
        let mut accs = mk();
        apply_batch(&mut accs, &encode_batch(&batches[0])).unwrap();
        assert!(apply_batch(&mut accs, &encode_batch(&b)).is_err());
    }

    #[test]
    fn duplicate_cct_ctx_is_rejected_before_any_mutation() {
        // A checksum-valid frame whose CCT section lists the same ctx
        // twice with a smaller new-node count the second time. Both
        // entry points must reject the frame as malformed — never
        // panic, never append both.
        let d = crate::delta::tests::dup_ctx_delta();
        let frame = encode_batch(&EpochBatch {
            epoch: 0,
            seq: 0,
            end: 100,
            deltas: vec![d],
        });
        let expected = WireError::Malformed("CCT ctx column not strictly increasing");
        let mut accs = vec![StageAccumulator::new(&StreamStage {
            proc: 1,
            stage_name: "app".into(),
        })];
        assert_eq!(apply_batch(&mut accs, &frame).unwrap_err(), expected);
        assert_eq!(decode_batch(&frame).unwrap_err(), expected);
    }

    #[test]
    fn a_recycled_batch_is_read_over_where_it_stands() {
        let (_, batches) = sample_batches();
        let d = &batches[1].deltas[0];
        let wide = EpochBatch {
            deltas: vec![d.clone(); 3],
            ..batches[1].clone()
        };
        let sealed = |b: &IncomingBatch| b.deltas().map(Incoming::seal).collect::<Vec<_>>();
        let at = |b: &IncomingBatch| (b.batch.deltas.as_ptr(), b.batch.deltas[0].ccts.as_ptr());
        let mut dec = BatchDecoder::default();
        let frames = [&wide, &wide, &batches[0]].map(encode_batch);
        let held = frames.each_ref().map(|f| dec.decode(f).expect("clean").0);
        let spots = held.each_ref().map(at);
        // Batches come back whole: one spare per batch out at once.
        held.into_iter().for_each(|b| dec.recycle(b));
        assert_eq!(dec.spares.len(), 3);
        // The last one back is the first read over, where it stands:
        // the same delta list and the same CCT increments.
        let (b, _) = dec.decode(&frames[2]).expect("clean");
        assert_eq!((at(&b), sealed(&b)), (spots[2], batches[0].deltas.clone()));
        dec.recycle(b);
        // A wider frame grows the spare; a narrower one keeps its list.
        let (b, _) = dec.decode(&frames[0]).expect("clean");
        assert_eq!(sealed(&b), wide.deltas);
        let grown = b.batch.deltas.as_ptr();
        dec.recycle(b);
        let (b, _) = dec.decode(&frames[2]).expect("clean");
        assert_eq!(
            (b.batch.deltas.as_ptr(), sealed(&b)),
            (grown, batches[0].deltas.clone())
        );
        dec.recycle(b);
        // A frame refused part way through drops the spare it drew, and
        // a sealed batch is not kept.
        let mut bad = wide.clone();
        bad.deltas[2] = crate::delta::tests::dup_ctx_delta();
        assert!(dec.decode(&encode_batch(&bad)).is_err());
        assert_eq!(dec.spares.len(), 2);
        dec.recycle(IncomingBatch::from(wide));
        assert_eq!(dec.spares.len(), 2);
    }

    /// A sealed frame with one delta, a tier digest, and two leaves'
    /// mass and gauges.
    fn sample_frame() -> SummaryFrame {
        let (_, batches) = sample_batches();
        let mut sk = QuantileSketch::new();
        for v in [3u64, 90, 90, 4000, 1 << 40] {
            sk.record(v);
        }
        SummaryFrame {
            src: 3,
            seq: 5,
            first_epoch: 0,
            last_epoch: 4,
            end: 5_000,
            deltas: vec![seal_delta(batches[0].deltas[0].clone(), 0)],
            sketches: vec![TierSketch::of("app", &sk)],
            leaf_mass: vec![(3, 200), (9, 50)],
            gauges: vec![
                (
                    3,
                    LeafGauges {
                        last_epoch: 4,
                        events: 100,
                        mass: 200,
                        lag_frames: 1,
                        checkpoints: 2,
                        recoveries: 0,
                    },
                ),
                (9, LeafGauges::default()),
            ],
            checksum: 0,
        }
        .seal()
    }

    #[test]
    fn summary_round_trip_is_exact() {
        let frame = sample_frame();
        let bytes = encode_summary(&frame);
        let (back, consumed) = decode_summary(&bytes).unwrap();
        assert_eq!(back, frame);
        assert_eq!(consumed, bytes.len());
        assert!(back.verify());
    }

    /// The sender's path (`seal_summary`: each delta hashed once, every
    /// checksum written as implied) writes the bytes `encode_summary`
    /// writes for the same sealed frame, which read back with every
    /// delta unsealed. A delta that stores a checksum its content does
    /// not imply is written with it, and comes back sealed, to be
    /// compared.
    #[test]
    fn sealed_summaries_read_back_unsealed() {
        let frame = sample_frame();
        let mut sent = frame.clone();
        sent.checksum = 0;
        sent.deltas.iter_mut().for_each(|d| d.checksum = 0);
        let mut bytes = Vec::new();
        seal_summary(&mut sent, &mut bytes);
        assert_eq!((&sent, &bytes), (&frame, &encode_summary(&frame)));
        let (f, consumed) = open_summary(&bytes).unwrap().read().unwrap();
        assert_eq!((f.frame(), consumed), (&frame, bytes.len()));
        assert!(f.deltas().all(|d| matches!(d, Incoming::Unsealed(_))));
        let mut bad = frame.clone();
        bad.deltas[0].checksum ^= 1;
        let bad = bad.seal();
        let (f, _) = open_summary(&encode_summary(&bad)).unwrap().read().unwrap();
        assert!(f.frame() == &bad && bad.verify());
        assert!(f
            .deltas()
            .all(|d| matches!(d, Incoming::Sealed(_)) && !d.verify()));
    }

    #[test]
    fn a_decoded_frame_holds_one_copy_of_each_name() {
        let (_, batches) = sample_batches();
        let d = &batches[0].deltas[0];
        // Three deltas naming the same frames, each from its own copy
        // of the names: sharing on the far side is the decoder's doing.
        let deltas: Vec<StageDelta> = (0..3)
            .map(|stage| {
                let mut twin = d.with_remapped_proc(stage, &|_| None);
                twin.new_frames = d.new_frames.iter().map(|f| Arc::from(&**f)).collect();
                twin
            })
            .collect();
        let one_copy = |got: &[StageDelta]| {
            assert_eq!(got, deltas);
            let [a, rest @ ..] = got else {
                panic!("no deltas")
            };
            assert!(!a.new_frames.is_empty());
            for b in rest {
                for (x, y) in a.new_frames.iter().zip(&b.new_frames) {
                    assert!(Arc::ptr_eq(x, y), "{x:?} is copied per delta");
                }
            }
        };
        let batch = EpochBatch {
            epoch: 0,
            seq: 0,
            end: 100,
            deltas: deltas.clone(),
        };
        one_copy(&decode_batch(&encode_batch(&batch)).unwrap().0.deltas);
        let frame = SummaryFrame {
            src: 0,
            seq: 0,
            first_epoch: 0,
            last_epoch: 0,
            end: 100,
            deltas: deltas.clone(),
            sketches: vec![],
            leaf_mass: vec![],
            gauges: vec![],
            checksum: 0,
        }
        .seal();
        one_copy(&decode_summary(&encode_summary(&frame)).unwrap().0.deltas);
    }

    #[test]
    fn fuzzed_bodies_never_panic() {
        // Valid envelope, adversarial bodies: every outcome must be a
        // typed error or a successful parse, never a panic.
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for len in 0..64 {
            for _ in 0..32 {
                let mut buf = Vec::new();
                let body = begin_frame(&mut buf, KIND_BATCH);
                for _ in 0..len {
                    buf.push(rng() as u8);
                }
                end_frame(&mut buf, body);
                let _ = decode_batch(&buf);
                let mut accs = vec![StageAccumulator::new(&StreamStage {
                    proc: 1,
                    stage_name: "app".into(),
                })];
                let _ = apply_batch(&mut accs, &buf);
            }
        }
    }
}
