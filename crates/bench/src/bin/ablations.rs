//! Ablations of Whodunit's design decisions (DESIGN.md §4).
//!
//! 1. **Consume window** (`MAX`, §7.2): sweep the window length and
//!    measure flow-detection recall on the fd queue.
//! 2. **Loop pruning** (§4.1): context-count growth on persistent
//!    connections with pruning on vs off.
//! 3. **Produce-requires-memory-destination** (§3): disabling the
//!    restriction turns consumers into "producers" and falsely
//!    disables fd-queue flow.
//! 4. **Emulation bail-out** (§7.2): Apache throughput with the
//!    bail-out disabled (allocator critical sections stay emulated).
//! 5. **Synopsis piggyback** (§7.4): wire bytes of 4-byte synopses vs
//!    shipping rendered full contexts.
//! 6. **Analytic vs stochastic sampling**: per-context CPU shares from
//!    deterministic sample placement vs seeded exponential gaps.

use whodunit_apps::httpd::{run_httpd, HttpdConfig};
use whodunit_apps::proxy::{run_proxy, ProxyConfig};
use whodunit_apps::rtconf::RtKind;
use whodunit_bench::header;
use whodunit_core::context::CtxId;
use whodunit_core::cost::CPU_HZ;
use whodunit_core::ids::{LockId, ThreadId};
use whodunit_core::rt::Runtime;
use whodunit_core::shm::{FlowConfig, FlowDetector, FlowEvent};
use whodunit_vm::programs::FdQueue;
use whodunit_vm::{Cpu, CsEmulator, EmuConfig, ExecMode, GuestMem, TranslationCache};

fn window_recall(max_window: u64, flow: FlowConfig) -> usize {
    let q = FdQueue::new(3);
    let mut mem = GuestMem::new(FdQueue::mem_words(16));
    FdQueue::init(&mut mem, 16);
    let mut det = FlowDetector::new(flow);
    let mut tc = TranslationCache::new();
    let emu = CsEmulator::new(EmuConfig {
        max_window,
        max_steps: 100_000,
    });
    let mut consumed = 0;
    for i in 0..10 {
        let prod = ThreadId(1);
        let mut cpu = Cpu::new(prod);
        cpu.regs[1] = 100 + i;
        cpu.regs[2] = 200 + i;
        let mut out = Vec::new();
        emu.run(
            &q.push,
            &mut cpu,
            &mut mem,
            ExecMode::Emulated { tcache: &mut tc },
            &mut |e| {
                det.on_event(prod, CtxId(5), e, &mut out);
            },
        );
        let cons = ThreadId(2);
        let mut cpu = Cpu::new(cons);
        let mut out = Vec::new();
        emu.run(
            &q.pop,
            &mut cpu,
            &mut mem,
            ExecMode::Emulated { tcache: &mut tc },
            &mut |e| {
                det.on_event(cons, CtxId::ROOT, e, &mut out);
            },
        );
        consumed += out
            .iter()
            .filter(|e| matches!(e, FlowEvent::Consumed { .. }))
            .count();
    }
    consumed
}

fn main() {
    header("Ablations", "design-decision sensitivity studies");

    println!("\n[1] Consume-window length vs fd-queue detection recall (10 rounds):");
    for w in [0u64, 1, 2, 4, 16, 128] {
        let hits = window_recall(w, FlowConfig::default());
        println!("    MAX = {w:>3}: {hits}/20 consumed values detected");
    }
    println!("    (the paper uses MAX = 128; a tiny window misses the consumer's use)");

    println!("\n[2] Loop pruning (§4.1) on persistent connections (Squid):");
    for (kind, label) in [
        (RtKind::Whodunit, "pruned contexts"),
        (RtKind::WhodunitFullHistory, "full histories"),
    ] {
        let r = run_proxy(ProxyConfig {
            clients: 12,
            duration: 6 * CPU_HZ,
            rt: kind,
            ..ProxyConfig::default()
        });
        assert!(r.outcome.is_ok(), "the run ended early: {}", r.outcome);
        let w = r.runtime.whodunit.as_ref().unwrap().borrow();
        println!(
            "    {label:<18}: {:>6} distinct contexts after {} requests",
            w.profiled_contexts().len(),
            r.reqs
        );
    }
    println!("    (without pruning, every extra request on a connection mints a new context)");

    println!("\n[3] Produce-requires-memory-destination (§3.2 restriction):");
    for (on, label) in [(true, "restriction on"), (false, "restriction off")] {
        let flow = FlowConfig {
            produce_requires_mem_dst: on,
            ..FlowConfig::default()
        };
        let q = FdQueue::new(3);
        let mut mem = GuestMem::new(FdQueue::mem_words(16));
        FdQueue::init(&mut mem, 16);
        let mut det = FlowDetector::new(flow);
        let mut tc = TranslationCache::new();
        let emu = CsEmulator::default();
        for i in 0..4 {
            let prod = ThreadId(1);
            let mut cpu = Cpu::new(prod);
            cpu.regs[1] = i;
            let mut out = Vec::new();
            emu.run(
                &q.push,
                &mut cpu,
                &mut mem,
                ExecMode::Emulated { tcache: &mut tc },
                &mut |e| {
                    det.on_event(prod, CtxId(5), e, &mut out);
                },
            );
            let cons = ThreadId(2);
            let mut cpu = Cpu::new(cons);
            let mut out = Vec::new();
            emu.run(
                &q.pop,
                &mut cpu,
                &mut mem,
                ExecMode::Emulated { tcache: &mut tc },
                &mut |e| {
                    det.on_event(cons, CtxId::ROOT, e, &mut out);
                },
            );
        }
        println!(
            "    {label:<16}: fd-queue flow enabled = {}",
            det.flow_enabled(LockId(3))
        );
    }
    println!("    (off: consumers' register staging loads count as produces, the");
    println!("     producer/consumer lists intersect, and real flow is lost)");

    println!("\n[4] Emulation bail-out (§7.2) on Apache throughput:");
    let mut results = Vec::new();
    for (kind, label) in [
        (RtKind::None, "no profiling"),
        (RtKind::Whodunit, "Whodunit (bail-out on)"),
        (RtKind::WhodunitAlwaysEmulate, "Whodunit (bail-out off)"),
    ] {
        let r = run_httpd(HttpdConfig {
            clients: 24,
            workers: 8,
            duration: 10 * CPU_HZ,
            rt: kind,
            ..HttpdConfig::default()
        });
        assert!(r.outcome.is_ok(), "the run ended early: {}", r.outcome);
        println!(
            "    {label:<26}: {:7.1} Mb/s (guest cycles {:>11})",
            r.throughput_mbps, r.guest_cycles
        );
        results.push(r.throughput_mbps);
    }
    assert!(results[1] >= results[2], "bail-out never hurts");

    println!("\n[5] Synopsis piggyback vs full-context piggyback (Squid run):");
    let r = run_proxy(ProxyConfig {
        clients: 12,
        duration: 6 * CPU_HZ,
        rt: RtKind::Whodunit,
        ..ProxyConfig::default()
    });
    assert!(r.outcome.is_ok(), "the run ended early: {}", r.outcome);
    let w = r.runtime.whodunit.as_ref().unwrap().borrow();
    let syn_bytes = w.ipc().piggyback_bytes;
    let msgs = w.ipc().messages;
    // A full context rendered for the wire: estimate with its display
    // form (the paper's alternative to 4-byte synopses).
    let full_bytes: u64 = w
        .profiled_contexts()
        .iter()
        .map(|&c| w.ctx_string(c).len() as u64)
        .max()
        .unwrap_or(32)
        * msgs;
    println!(
        "    synopses: {syn_bytes} B over {msgs} messages; full contexts would be ≈{full_bytes} B ({:.0}x)",
        full_bytes as f64 / syn_bytes.max(1) as f64
    );

    println!("\n[6] Analytic vs stochastic sampling (Squid context shares):");
    let shares = |kind| {
        let r = run_proxy(ProxyConfig {
            clients: 12,
            duration: 8 * CPU_HZ,
            rt: kind,
            ..ProxyConfig::default()
        });
        assert!(r.outcome.is_ok(), "the run ended early: {}", r.outcome);
        let w = r.runtime.whodunit.as_ref().unwrap().borrow();
        whodunit_report::render::context_shares(&w.dump().unwrap())
    };
    let analytic = shares(RtKind::Whodunit);
    let stochastic = shares(RtKind::WhodunitStochastic);
    let mut max_dev: f64 = 0.0;
    for a in &analytic {
        let s = stochastic
            .iter()
            .find(|s| s.ctx == a.ctx)
            .map(|s| s.pct)
            .unwrap_or(0.0);
        println!("    {:6.2}% vs {:6.2}%  {}", a.pct, s, a.ctx);
        max_dev = max_dev.max((a.pct - s).abs());
    }
    println!("    max deviation {max_dev:.2} percentage points — the analytic");
    println!("    placement is an unbiased stand-in for timer-driven sampling");
    assert!(max_dev < 2.0, "sampling modes agree");
}
