//! Span recorder and allocation counter for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a public function of the product; nothing in the product knows
//! it is being traced. They stay in memory until the run ends. A span
//! named `collector.drain` belongs to layer `collector`; the root span
//! of a pass is `pass`, whose self time is the harness's own glue.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with two counters in front: calls to `alloc`
/// / `realloc` and bytes requested by them. Only `wbench-traced`
/// installs it, so the end-to-end numbers are measured on the
/// allocator the product ships with.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics (`Relaxed`, publishing no other data) and never influence
// what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn alloc_counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Whether the counting allocator is installed in this binary (it has
/// counted at least the allocations made before `main`).
pub fn counting_allocator_installed() -> bool {
    ALLOCS.load(Ordering::Relaxed) > 0
}

const NO_PARENT: u32 = u32::MAX;

/// Room reserved before each traced pass; the widest workload opens
/// about 5,400 spans in one.
const SPANS_PER_PASS: usize = 1 << 14;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`, or `pass` for the root.
    pub name: &'static str,
    /// Start, ns since the recorder was made.
    pub start_ns: u64,
    /// End, ns since the recorder was made.
    pub end_ns: u64,
    /// Index of the span this one ran inside, [`u32::MAX`] for a root.
    pub parent: u32,
    /// Traced-pass number, from 0.
    pub pass: u32,
    /// Allocator calls while the span was open, children included.
    pub allocs: u64,
    /// Bytes those calls requested.
    pub alloc_bytes: u64,
}

/// Handle returned by [`Recorder::open`]; pass it to
/// [`Recorder::close`].
#[derive(Clone, Copy)]
pub struct SpanId(u32);

/// In-memory span recorder. When off, `open`/`close` cost one branch,
/// so the same workload code runs traced and untraced.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    pass: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }
}

impl Recorder {
    /// Turns recording on or off (between passes). Turning it on
    /// reserves room for the coming pass's spans, so that the recorder
    /// never allocates while a span is open: its own allocations would
    /// be counted against whichever layer happened to be running.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.on = on;
        if on {
            self.spans.reserve(SPANS_PER_PASS);
            self.stack.reserve(8);
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            pass: self.pass,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.stack.push(id);
        // Read the counters and the clock last on the way in and first
        // on the way out, so the recorder's own work (the pushes above
        // may reallocate) lands in the parent, not in the span.
        let (allocs, alloc_bytes) = alloc_counters();
        let start = self.now_ns();
        let s = &mut self.spans[id as usize];
        (s.allocs, s.alloc_bytes, s.start_ns) = (allocs, alloc_bytes, start);
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let (allocs, alloc_bytes) = alloc_counters();
        assert_eq!(self.stack.pop(), Some(id.0), "spans close innermost first");
        let s = &mut self.spans[id.0 as usize];
        s.end_ns = end;
        s.allocs = allocs - s.allocs;
        s.alloc_bytes = alloc_bytes - s.alloc_bytes;
    }

    /// Times `f` as one leaf span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Ends a traced pass: later spans carry the next pass number.
    pub fn end_pass(&mut self) {
        assert!(self.stack.is_empty(), "pass ended inside an open span");
        if self.on {
            self.pass += 1;
        }
    }

    /// Every span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-pass self time and self allocations of every span name.
    pub fn self_costs(&self) -> SelfCosts {
        let n = self.spans.len();
        let mut child_ns = vec![0u64; n];
        let mut child_allocs = vec![0u64; n];
        let mut child_bytes = vec![0u64; n];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                child_ns[p] += s.end_ns - s.start_ns;
                child_allocs[p] += s.allocs;
                child_bytes[p] += s.alloc_bytes;
            }
        }
        let passes = self.pass as usize;
        let mut by_name: BTreeMap<&'static str, Vec<SelfCost>> = BTreeMap::new();
        let mut pass_ns = vec![0u64; passes];
        for (i, s) in self.spans.iter().enumerate() {
            let slot = &mut by_name
                .entry(s.name)
                .or_insert_with(|| vec![SelfCost::default(); passes])[s.pass as usize];
            slot.calls += 1;
            slot.ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            slot.allocs += s.allocs - child_allocs[i];
            slot.alloc_bytes += s.alloc_bytes - child_bytes[i];
            if s.parent == NO_PARENT {
                pass_ns[s.pass as usize] += s.end_ns - s.start_ns;
            }
        }
        SelfCosts { by_name, pass_ns }
    }

    /// Inclusive durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// The trace as JSON: the stamp, then one row per span.
    pub fn to_json(&self, stamp_json: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"stamp\": {stamp_json},\n \"columns\": [\"id\", \"name\", \"start_ns\", \"end_ns\", \
             \"parent\", \"pass\", \"allocs\", \"alloc_bytes\"],\n \"spans\": [\n"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "  [{i}, \"{}\", {}, {}, {parent}, {}, {}, {}]{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.pass,
                s.allocs,
                s.alloc_bytes,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str(" ]}\n");
        out
    }
}

/// Self cost of one span name within one pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfCost {
    /// Spans of that name in the pass.
    pub calls: u64,
    /// Their durations minus their children's.
    pub ns: u64,
    /// Allocator calls made while they, and no child, were innermost.
    pub allocs: u64,
    /// Bytes those calls requested.
    pub alloc_bytes: u64,
}

/// [`Recorder::self_costs`]: span name → one [`SelfCost`] per traced
/// pass, plus each traced pass's root duration.
pub struct SelfCosts {
    /// Span name → per-pass self cost.
    pub by_name: BTreeMap<&'static str, Vec<SelfCost>>,
    /// Root span duration of each pass, ns.
    pub pass_ns: Vec<u64>,
}

/// The layer of a span name: the part before the first `.`; the root
/// `pass` span is the harness's own layer.
pub fn layer_of(name: &str) -> &str {
    match name.split_once('.') {
        Some((layer, _)) => layer,
        None => "harness",
    }
}

impl SelfCosts {
    /// Per-pass self time (ms) of one span name; empty if it never ran.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.by_name
            .get(name)
            .map(|v| v.iter().map(|c| c.ns as f64 / 1e6).collect())
            .unwrap_or_default()
    }

    /// Per-pass totals of one layer (every span name under it).
    pub fn layer(&self, layer: &str) -> Vec<SelfCost> {
        let mut out = vec![SelfCost::default(); self.pass_ns.len()];
        for (name, per_pass) in &self.by_name {
            if layer_of(name) != layer {
                continue;
            }
            for (o, c) in out.iter_mut().zip(per_pass) {
                o.calls += c.calls;
                o.ns += c.ns;
                o.allocs += c.allocs;
                o.alloc_bytes += c.alloc_bytes;
            }
        }
        out
    }

    /// Largest relative gap, over the traced passes, between a pass's
    /// root span and the sum of every self time recorded in it. By
    /// construction the two agree unless spans overlap or leak, so this
    /// is the recorder checking itself.
    pub fn worst_sum_gap(&self) -> f64 {
        let mut sums = vec![0u64; self.pass_ns.len()];
        for per_pass in self.by_name.values() {
            for (s, c) in sums.iter_mut().zip(per_pass) {
                *s += c.ns;
            }
        }
        sums.iter()
            .zip(&self.pass_ns)
            .map(|(&s, &p)| (s as f64 - p as f64).abs() / (p as f64).max(1.0))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_sums_to_the_pass() {
        let mut r = Recorder::default();
        r.set_on(true);
        for _ in 0..2 {
            let pass = r.open("pass");
            let outer = r.open("engine.run");
            spin(300);
            r.span("wire.encode", || spin(200));
            r.span("wire.encode", || spin(200));
            r.close(outer);
            r.span("collector.finalize", || spin(100));
            r.close(pass);
            r.end_pass();
        }
        let c = r.self_costs();
        assert_eq!(c.pass_ns.len(), 2);
        assert_eq!(c.by_name["wire.encode"][0].calls, 2);
        assert_eq!(c.by_name["engine.run"][1].calls, 1);
        // engine.run's self time excludes the two encodes inside it.
        let run = c.ms("engine.run")[0];
        let enc = c.ms("wire.encode")[0];
        // (Lower bounds only: a pre-empted spin runs long, never short.)
        let run_inclusive = r.durations_ns("engine.run")[0] / 1e6;
        assert!(
            run >= 0.3 && enc >= 0.4,
            "engine self {run} ms, encode self {enc} ms"
        );
        assert!(
            (run_inclusive - run - enc).abs() < 1e-6,
            "engine.run = self + children"
        );
        assert!(c.worst_sum_gap() < 1e-9);
        assert_eq!(c.layer("wire")[1].calls, 2);
        assert_eq!(layer_of("pass"), "harness");
        assert_eq!(layer_of("pipeline.phase.index"), "pipeline");
        assert_eq!(r.durations_ns("wire.encode").len(), 4);
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let mut r = Recorder::default();
        let id = r.open("pass");
        assert_eq!(r.span("wire.encode", || 7), 7);
        r.close(id);
        r.end_pass();
        assert!(r.spans().is_empty());
        assert!(r.self_costs().pass_ns.is_empty());
    }

    #[test]
    fn trace_json_parses_and_keeps_parents() {
        let mut r = Recorder::default();
        r.set_on(true);
        let pass = r.open("pass");
        r.span("wire.decode", || ());
        r.close(pass);
        r.end_pass();
        let doc = crate::harness::Json::parse(&r.to_json("{\"seed\": 1}")).unwrap();
        let spans = doc.get("spans").unwrap().items();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].items()[4].num(), Some(-1.0));
        assert_eq!(spans[1].items()[4].num(), Some(0.0));
        assert_eq!(spans[1].items()[1].str(), Some("wire.decode"));
    }
}
