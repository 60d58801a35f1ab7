//! The engine's allocation budget, as an exact-count gate.
//!
//! The smoke-shaped 3-tier stack (40 clients, 150 simulated seconds,
//! seed 1) runs live through [`run_tpcw_streaming`] into a
//! [`RecordingSink`] behind a counting allocator, and every allocation
//! of the call — building the stack, the simulator's events, the
//! profiler hooks, the per-epoch dumps and `diff_dump` — is held against
//! the requests the simulated clients completed.
//!
//! - 161,610 allocations for 643 requests (251.3 per request) when
//!   every quantum end cost a `Vec<Dispatch>`, every send built and
//!   dropped the context value it was looking up, and every epoch took
//!   three whole fresh dumps;
//! - 29,616 (46.1 per request) with the one-decision `dispatch`, the
//!   context table probing by borrowed parts, `dump_into` refilling the
//!   dump of two epochs ago, and the IPC age queue compacted instead of
//!   regrown (17 of the count; megabytes of the footprint);
//! - 29,380 (45.7 per request) with frame names and contexts shared:
//!   `diff_dump` hands the sink each new name and context by
//!   reference instead of copying it out of the dump;
//! - 29,381 (45.7 per request) with the flow dictionary, the lock table
//!   and the CCT child spill `FnvHashMap`s, which grow from room for 3
//!   entries where the hand-written tables started at 16 slots;
//! - 29,380 (45.7 per request) with the IPC associations in a `Vec`
//!   indexed by synopsis counter, whose growth steps over the three
//!   stages add up to one fewer than the SipHash map's it replaced
//!   (quantum ends in a sorted `Vec` instead of a heap alone read
//!   29,381);
//! - 29,389 (45.7 per request) with every CCT child in its tree's one
//!   child map (a tree whose nodes have at most two children each now
//!   allocates its map too) and no copy of each process's name.
//! - 29,378 just before the stack was built through the one build
//!   harness, and 29,379 (45.7 per request) with it: its list of tier
//!   ids is the one new allocation.
//!
//! The three steps were counted apart only on the full-size run
//! (`benchmark/`'s `live_stack`, seed 1, `engine.allocs` over 31,184
//! requests): 200.7 per request before, 110.3 after the event queue and
//! `dispatch`, 66.3 after the profiler's send/receive path, 36.5 after
//! `dump_into`. This run is shorter, so set-up weighs more in it.
//!
//! The bound sits between the first two figures above, close to the lower
//! one, so a per-quantum, per-send or per-epoch temporary that comes
//! back trips it without a stopwatch. What is left is the model's own:
//! a boxed payload per message, the synopsis chain each message
//! carries, the apps' per-query lists, and the deltas the sink keeps.
//!
//! One `#[test]` and nothing else in this binary: the counter is
//! process-wide, and a second test thread would allocate into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use whodunit_apps::tpcw::{run_tpcw_streaming, TpcwConfig};
use whodunit_core::cost::CPU_HZ;
use whodunit_core::delta::RecordingSink;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator with a call counter in front.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// statistic (`Relaxed`, publishing no other data) and never influences
// what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations per completed request the live stack may make.
const MAX_ALLOCS_PER_REQUEST: f64 = 60.0;

#[test]
fn live_stack_stays_inside_its_allocation_budget() {
    let cfg = TpcwConfig {
        clients: 40,
        duration: 150 * CPU_HZ,
        warmup: (150 / 4) * CPU_HZ,
        seed: 1,
        ..Default::default()
    };
    let mut sink = RecordingSink::default();
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = run_tpcw_streaming(cfg, CPU_HZ, &mut sink);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    // `throughput_per_min` is `completed / window` scaled to a minute.
    let requests =
        (report.throughput_per_min * report.window as f64 / (60.0 * CPU_HZ as f64)).round() as u64;
    let per_request = allocs as f64 / requests as f64;
    assert_eq!(requests, 643, "not the run the budget was set on");
    assert_eq!(sink.batches.len(), 150, "one batch per 1 s epoch");
    assert!(
        per_request <= MAX_ALLOCS_PER_REQUEST,
        "{allocs} allocations for {requests} requests = {per_request:.1} per request, \
         over the {MAX_ALLOCS_PER_REQUEST} budget (251.3 at the one-heap engine, 45.7 now)"
    );
}
