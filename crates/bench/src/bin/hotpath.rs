//! hotpath: microbenchmarks of the four hottest data paths, plus the
//! end-to-end streaming-collector ingest rate they add up to.
//!
//! The hot-path overhaul (interned keys, arena CCTs, FNV-indexed flow
//! dictionary, zero-alloc serializer, lane-wise delta checksums) is a
//! pure performance change: every output is locked byte-identical by
//! the differential/golden harness. This bench makes the performance
//! side measurable and gates it:
//!
//! - **flow** — `FlowDetector::on_event` throughput over a synthetic
//!   Figure-1 produce/consume stream (disjoint producer/consumer
//!   thread sets, so flow stays enabled on every lock);
//! - **intern** — `ContextTable::intern` throughput over a realistic
//!   mix of first-seen and repeated context values;
//! - **cct** — CCT fold throughput (`path_node` + `record_at` over a
//!   fixed path population — the shape of the collector's merge);
//! - **serialize** — `dumpjson::to_json` throughput over real fleet
//!   dumps, with every iteration byte-compared;
//! - **ingest** — the collectord scenario end to end: a staggered
//!   48-replica fleet stream through `Collector`, finalized output
//!   byte-compared against batch `analyze`, throughput compared
//!   against the pre-overhaul recorded baseline.
//!
//! Exit is non-zero unless every self-check holds and every ingest
//! sweep entry is byte-identical to the batch reference; the full run
//! additionally requires the ingest rate to beat the recorded baseline
//! by at least 2x (`--smoke` only applies a loose absolute floor, so
//! the CI gate stays robust to slow shared runners).
//!
//! Results go to `BENCH_hotpath.json`. Modes:
//!
//! - `hotpath [--replicas R] [--clients C] [--duration-s S]
//!   [--scale K] [--out FILE]` — full run.
//! - `hotpath --smoke` — small fixed configuration; CI gate.

use std::process::ExitCode;
use std::time::Instant;
use whodunit_apps::tpcw::run_tpcw_streaming;
use whodunit_bench::{clamp_replicas, fleet_config, fleet_stream, header, write_json_file};
use whodunit_collector::{Collector, CollectorConfig};
use whodunit_core::cct::{Cct, Metrics};
use whodunit_core::context::{ContextPolicy, ContextTable, CtxId, TransactionContext};
use whodunit_core::cost::CPU_HZ;
use whodunit_core::delta::RecordingSink;
use whodunit_core::dumpjson;
use whodunit_core::frame::FrameId;
use whodunit_core::ids::{LockId, ThreadId};
use whodunit_core::pipeline::{analyze, replicate_fleet, PipelineConfig, PipelineReport};
use whodunit_core::shm::{FlowDetector, FlowEvent, Loc, MemEvent};

/// `BENCH_collector.json` window=8 `ingest_events_per_s` as recorded
/// before the hot-path overhaul (batch fingerprint 5dabdc5f5ca7e570,
/// 48 replicas). The full run must beat 2x this on the same scenario.
const BASELINE_EVENTS_PER_S: f64 = 2_052_189.0;

/// Wire frames must average at most this many bytes per change event:
/// 0.2x the 74.105 B/event the retired JSON edge encoding cost on the
/// full-run stream (`BENCH_hotpath.json` as recorded by PR 10).
const WIRE_MAX_BYTES_PER_EVENT: f64 = 14.8;

struct Args {
    replicas: usize,
    clients: u32,
    duration_s: u64,
    stagger: u64,
    /// Micro-iteration multiplier (1 = the standard full volumes).
    scale: u64,
    out: String,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        replicas: 48,
        clients: 24,
        duration_s: 40,
        stagger: 2,
        scale: 1,
        out: "BENCH_hotpath.json".to_owned(),
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--replicas" => {
                a.replicas = val("--replicas")?.parse().map_err(|e| format!("--replicas: {e}"))?
            }
            "--clients" => {
                a.clients = val("--clients")?.parse().map_err(|e| format!("--clients: {e}"))?
            }
            "--duration-s" => {
                a.duration_s =
                    val("--duration-s")?.parse().map_err(|e| format!("--duration-s: {e}"))?
            }
            "--stagger" => {
                a.stagger = val("--stagger")?.parse().map_err(|e| format!("--stagger: {e}"))?
            }
            "--scale" => a.scale = val("--scale")?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--out" => a.out = val("--out")?,
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if a.smoke {
        a.replicas = 12;
        a.clients = 12;
        a.duration_s = 12;
        a.stagger = 2;
        a.scale = 0; // Sentinel: 1/10th micro volumes.
    }
    a.replicas = clamp_replicas(a.replicas);
    a.stagger = a.stagger.max(1);
    Ok(a)
}

/// One microbench result row.
struct Micro {
    ops: u64,
    ms: f64,
    per_s: f64,
    ok: bool,
}

fn time<F: FnMut() -> (u64, bool)>(mut f: F) -> Micro {
    let t = Instant::now();
    let (ops, ok) = f();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    Micro {
        ops,
        ms,
        per_s: ops as f64 / (ms / 1e3).max(1e-9),
        ok,
    }
}

/// Figure-1 produce/consume rounds: producers 0..T/2 store into lock-
/// sharded slots under a critical section, consumers T/2..T load and
/// use them. Producer and consumer sets stay disjoint per lock, so
/// flow must remain enabled and every round must yield exactly one
/// `Produced` and one `Consumed` inference.
fn bench_flow(rounds: u64) -> Micro {
    const THREADS: u32 = 8;
    const LOCKS: u32 = 4;
    const SLOTS: u64 = 64;
    let mut d = FlowDetector::default();
    let mut out: Vec<FlowEvent> = Vec::with_capacity(4);
    time(|| {
        let (mut produced, mut consumed) = (0u64, 0u64);
        let mut events = 0u64;
        for i in 0..rounds {
            let lock = LockId(1 + (i % u64::from(LOCKS)) as u32);
            let slot = Loc::Mem(1000 + (i % SLOTS) + u64::from(lock.0) * SLOTS);
            let p = ThreadId((i % u64::from(THREADS / 2)) as u32);
            let c = ThreadId((THREADS / 2) + (i % u64::from(THREADS / 2)) as u32);
            let ctx = CtxId(1 + (i % 512) as u32);
            let arg = Loc::Mem(i % 16);
            let dst = Loc::Mem(500 + (i % 32));

            out.clear();
            d.on_event(p, ctx, &MemEvent::CsEnter { lock }, &mut out);
            d.on_event(p, ctx, &MemEvent::Mov { src: arg, dst: Loc::Reg(p, 0) }, &mut out);
            d.on_event(p, ctx, &MemEvent::Mov { src: Loc::Reg(p, 0), dst: slot }, &mut out);
            d.on_event(p, ctx, &MemEvent::Modify { dst: Loc::Mem(100) }, &mut out);
            d.on_event(p, ctx, &MemEvent::CsExit, &mut out);
            produced += out
                .iter()
                .filter(|e| matches!(e, FlowEvent::Produced { .. }))
                .count() as u64;

            out.clear();
            let cctx = CtxId(600 + (i % 64) as u32);
            d.on_event(c, cctx, &MemEvent::CsEnter { lock }, &mut out);
            d.on_event(c, cctx, &MemEvent::Mov { src: slot, dst: Loc::Reg(c, 1) }, &mut out);
            d.on_event(c, cctx, &MemEvent::Mov { src: Loc::Reg(c, 1), dst }, &mut out);
            d.on_event(c, cctx, &MemEvent::CsExit, &mut out);
            d.on_event(c, cctx, &MemEvent::Use { loc: dst }, &mut out);
            consumed += out
                .iter()
                .filter(|e| matches!(e, FlowEvent::Consumed { .. }))
                .count() as u64;
            events += 10;
        }
        let flows_ok = (1..=LOCKS).all(|l| d.flow_enabled(LockId(l)));
        (events, flows_ok && produced == rounds && consumed == rounds)
    })
}

/// Interns a population of `distinct` chain-shaped context values,
/// cycling so most interns are repeat hits (the profiler's steady
/// state), and checks the table holds exactly the population.
fn bench_intern(total: u64) -> Micro {
    const DISTINCT: u64 = 2048;
    let policy = ContextPolicy::full_history();
    let values: Vec<TransactionContext> = (0..DISTINCT)
        .map(|i| {
            let mut v = TransactionContext::root();
            let depth = 1 + (i % 8);
            for d in 0..depth {
                // A skewed frame alphabet: hot entry frames shared
                // across values, deeper frames increasingly distinct.
                let f = (i * 31 + d * 7) % (8 + i / 4 + d * 13);
                v = v.append_frame(FrameId(f as u32), policy);
            }
            v
        })
        .collect();
    let mut t = ContextTable::new(policy);
    time(|| {
        for i in 0..total {
            let v = &values[(i % DISTINCT) as usize];
            let id = t.intern(v.clone());
            std::hint::black_box(id);
        }
        // Root is pre-interned; values may collide after policy
        // truncation, so distinct-count is an upper bound.
        (total, t.len() as u64 >= 2 && t.len() as u64 <= DISTINCT + 1)
    })
}

/// Folds a fixed path population into one CCT, the access pattern of
/// the collector's incremental merge: resolve the path's node, then
/// record metrics at it.
fn bench_cct(total: u64) -> Micro {
    const PATHS: usize = 512;
    let paths: Vec<Vec<FrameId>> = (0..PATHS)
        .map(|i| {
            let depth = 2 + i % 11;
            (0..depth)
                .map(|d| FrameId(((i * 17 + d * d * 5) % 64) as u32))
                .collect()
        })
        .collect();
    let mut cct = Cct::new();
    let nodes: Vec<_> = paths.iter().map(|p| cct.path_node(p)).collect();
    time(|| {
        for i in 0..total {
            let n = nodes[(i as usize) % PATHS];
            cct.record_at(
                n,
                Metrics {
                    samples: 1,
                    cycles: 100 + i % 900,
                    calls: 1,
                },
            );
        }
        (total, cct.total().samples == total)
    })
}

/// Serializes real fleet dumps repeatedly; every iteration must be
/// byte-identical to the first.
fn bench_serialize(
    dumps: &[whodunit_core::stitch::StageDump],
    iters: u64,
) -> (Micro, u64, f64) {
    let first = dumpjson::to_json(dumps);
    let bytes = first.len() as u64;
    let m = time(|| {
        let mut same = true;
        for _ in 0..iters {
            let j = dumpjson::to_json(dumps);
            same &= j == first;
            std::hint::black_box(&j);
        }
        (iters, same)
    });
    let mb_per_s = (bytes * iters) as f64 / 1e6 / (m.ms / 1e3).max(1e-9);
    (m, bytes, mb_per_s)
}

struct IngestRow {
    window: u64,
    ingest_ms: f64,
    events_per_s: f64,
    identical: bool,
    fingerprint: u64,
}

fn identical(reference: &PipelineReport, got: &PipelineReport) -> bool {
    got.fingerprint() == reference.fingerprint()
        && got.stitched_text() == reference.stitched_text()
        && got.crosstalk_text() == reference.crosstalk_text()
        && got.dumps_json == reference.dumps_json
        && got.dict == reference.dict
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hotpath: {e}");
            return ExitCode::FAILURE;
        }
    };
    header(
        "hotpath",
        "hot-path microbenchmarks + end-to-end streaming ingest gate",
    );

    // Micro volumes: full standard is scale=1; --smoke runs 1/10th.
    let unit = if args.scale == 0 { 100_000 } else { 1_000_000 * args.scale };
    let flow = bench_flow(unit / 5);
    println!(
        "flow       {:>9} events {:8.1} ms ({:9.0} ev/s)      ok={}",
        flow.ops, flow.ms, flow.per_s, flow.ok
    );
    let intern = bench_intern(unit);
    println!(
        "intern     {:>9} interns {:7.1} ms ({:9.0} interns/s) ok={}",
        intern.ops, intern.ms, intern.per_s, intern.ok
    );
    let cct = bench_cct(unit * 2);
    println!(
        "cct        {:>9} folds  {:8.1} ms ({:9.0} folds/s)    ok={}",
        cct.ops, cct.ms, cct.per_s, cct.ok
    );

    // Real dumps for the serializer and the ingest scenario.
    let cfg = fleet_config(args.clients, args.duration_s);
    let mut sink = RecordingSink::default();
    let report = run_tpcw_streaming(cfg, CPU_HZ, &mut sink);
    assert_eq!(report.dumps.len(), 3, "all three tiers must dump");
    let fleet_dumps = replicate_fleet(&report.dumps, args.replicas);

    let ser_iters = if args.scale == 0 { 5 } else { 40 * args.scale };
    let (ser, ser_bytes, ser_mb_s) = bench_serialize(&fleet_dumps, ser_iters);
    println!(
        "serialize  {:>9} bytes x{:<3} {:6.1} ms ({:9.1} MB/s)   identical={}",
        ser_bytes, ser.ops, ser.ms, ser_mb_s, ser.ok
    );

    // End-to-end ingest: the collectord scenario, byte-compared
    // against batch analyze. Best-of-3 per window so a noisy shared
    // host cannot fail the throughput gate on one bad run.
    let reference = analyze(
        fleet_dumps,
        PipelineConfig {
            workers: 1,
            shards: CollectorConfig::default().shards,
        },
    );
    let (fleet_hdr, stream) = fleet_stream(&sink.header, &sink.batches, args.replicas, args.stagger);
    let stream_events: u64 = stream.iter().map(|b| b.events()).sum();
    println!(
        "ingest stream: {} stages, {} epochs, {} events",
        fleet_hdr.stages.len(),
        stream.len(),
        stream_events
    );

    let windows: &[u64] = if args.smoke { &[4] } else { &[1, 8] };
    const REPS: usize = 3;
    let mut rows = Vec::new();
    for &window in windows {
        let mut best_ms = f64::INFINITY;
        let mut all_identical = true;
        let mut fingerprint = 0u64;
        for _ in 0..REPS {
            let mut c = Collector::with_header(
                &fleet_hdr,
                CollectorConfig {
                    window_epochs: window,
                    ..CollectorConfig::default()
                },
            );
            let t = Instant::now();
            for b in &stream {
                assert!(c.enqueue(b.clone()), "unbounded queue refused a batch");
                c.drain();
            }
            let ms = t.elapsed().as_secs_f64() * 1e3;
            best_ms = best_ms.min(ms);
            let out = c.finalize();
            all_identical &= identical(&reference, &out.report) && !out.stats.used_fallback;
            fingerprint = out.report.fingerprint();
        }
        let row = IngestRow {
            window,
            ingest_ms: best_ms,
            events_per_s: stream_events as f64 / (best_ms / 1e3).max(1e-9),
            identical: all_identical,
            fingerprint,
        };
        println!(
            "ingest     window={:2}  best {:8.1} ms ({:9.0} ev/s)  identical={}",
            row.window, row.ingest_ms, row.events_per_s, row.identical
        );
        rows.push(row);
    }

    // Wire codec (DESIGN.md §16): encode and decode rates over the
    // same fleet stream, frame bytes per event, and one full collector
    // run ingesting through `enqueue_wire` — all byte-checked.
    let frames: Vec<Vec<u8>> = stream.iter().map(whodunit_core::encode_batch).collect();
    let wire_frame_bytes: u64 = frames.iter().map(|f| f.len() as u64).sum();

    let mut encode_best_ms = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        for b in &stream {
            std::hint::black_box(whodunit_core::encode_batch(b));
        }
        encode_best_ms = encode_best_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    let encode_events_per_s = stream_events as f64 / (encode_best_ms / 1e3).max(1e-9);

    let mut decode_best_ms = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        for f in &frames {
            std::hint::black_box(whodunit_core::decode_batch(f).expect("own frame decodes"));
        }
        decode_best_ms = decode_best_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    let decode_events_per_s = stream_events as f64 / (decode_best_ms / 1e3).max(1e-9);
    let decode_exact = frames
        .iter()
        .zip(&stream)
        .all(|(f, b)| matches!(whodunit_core::decode_batch(f), Ok((back, n)) if back == *b && n == f.len()));
    println!(
        "wire enc   {:>9} bytes  {:8.1} ms ({:9.0} ev/s)",
        wire_frame_bytes, encode_best_ms, encode_events_per_s
    );
    println!(
        "wire dec   {:>9} bytes  {:8.1} ms ({:9.0} ev/s)  exact={}",
        wire_frame_bytes, decode_best_ms, decode_events_per_s, decode_exact
    );

    let bytes_per_event = wire_frame_bytes as f64 / (stream_events as f64).max(1.0);
    let size_ok = bytes_per_event <= WIRE_MAX_BYTES_PER_EVENT;
    println!(
        "wire size  {bytes_per_event:.2} B/event (gate <= {WIRE_MAX_BYTES_PER_EVENT} B/event: {size_ok})"
    );

    // Full collector ingest through the wire: header frame, every
    // batch frame, finalized report byte-compared.
    let mut wc = Collector::new(CollectorConfig::default());
    wc.start_wire(&whodunit_core::wire::encode_header(&fleet_hdr))
        .expect("header frame decodes");
    let t = Instant::now();
    for f in &frames {
        assert!(
            wc.enqueue_wire(f).expect("clean wire frame decodes"),
            "unbounded queue refused a frame"
        );
        wc.drain();
    }
    let wire_collector_ms = t.elapsed().as_secs_f64() * 1e3;
    let wout = wc.finalize();
    let wire_collector_identical =
        identical(&reference, &wout.report) && !wout.stats.used_fallback && wout.stats.wire_errors == 0;
    println!(
        "wire e2e   {:>9} events {:8.1} ms ({:9.0} ev/s)  identical={}",
        stream_events,
        wire_collector_ms,
        stream_events as f64 / (wire_collector_ms / 1e3).max(1e-9),
        wire_collector_identical
    );

    // Hard gates (smoke included): identity and the exact size bound.
    let wire_ok = decode_exact && wire_collector_identical && size_ok;

    let gate_row = rows.last().expect("at least one window");
    let speedup = gate_row.events_per_s / BASELINE_EVENTS_PER_S;
    let throughput_ok = if args.smoke {
        // Loose floor: an order of magnitude under the recorded
        // baseline still passes on a slow shared runner.
        gate_row.events_per_s > BASELINE_EVENTS_PER_S / 10.0
    } else {
        speedup >= 2.0
    };
    println!(
        "ingest speedup vs recorded baseline ({:.0} ev/s): {:.2}x  (gate: {})",
        BASELINE_EVENTS_PER_S,
        speedup,
        if args.smoke { ">=0.1x (smoke)" } else { ">=2x" }
    );

    let micros_ok = flow.ok && intern.ok && cct.ok && ser.ok;
    let ingest_ok = rows.iter().all(|r| r.identical);
    let ok = micros_ok && ingest_ok && throughput_ok && wire_ok;

    let mut j = String::from("{\n");
    j.push_str("  \"bench\": \"hotpath\",\n");
    j.push_str(&format!(
        "  \"config\": {{\"replicas\": {}, \"clients\": {}, \"duration_s\": {}, \"stagger_epochs\": {}, \"scale\": {}, \"smoke\": {}}},\n",
        args.replicas, args.clients, args.duration_s, args.stagger, args.scale, args.smoke
    ));
    j.push_str(&format!(
        "  \"flow\": {{\"events\": {}, \"ms\": {:.3}, \"events_per_s\": {:.0}, \"ok\": {}}},\n",
        flow.ops, flow.ms, flow.per_s, flow.ok
    ));
    j.push_str(&format!(
        "  \"intern\": {{\"interns\": {}, \"ms\": {:.3}, \"interns_per_s\": {:.0}, \"ok\": {}}},\n",
        intern.ops, intern.ms, intern.per_s, intern.ok
    ));
    j.push_str(&format!(
        "  \"cct\": {{\"folds\": {}, \"ms\": {:.3}, \"folds_per_s\": {:.0}, \"ok\": {}}},\n",
        cct.ops, cct.ms, cct.per_s, cct.ok
    ));
    j.push_str(&format!(
        "  \"serialize\": {{\"bytes\": {}, \"iters\": {}, \"ms\": {:.3}, \"mb_per_s\": {:.1}, \"identical_output\": {}}},\n",
        ser_bytes, ser.ops, ser.ms, ser_mb_s, ser.ok
    ));
    j.push_str(&format!(
        "  \"batch_fingerprint\": \"{:016x}\",\n",
        reference.fingerprint()
    ));
    j.push_str("  \"ingest\": {\n");
    j.push_str(&format!(
        "    \"stream\": {{\"stages\": {}, \"epochs\": {}, \"events\": {}}},\n",
        fleet_hdr.stages.len(),
        stream.len(),
        stream_events
    ));
    j.push_str(&format!(
        "    \"baseline_events_per_s\": {:.0},\n",
        BASELINE_EVENTS_PER_S
    ));
    j.push_str("    \"sweep\": [\n");
    for (i, r) in rows.iter().enumerate() {
        j.push_str(&format!(
            "      {{\"window_epochs\": {}, \"ingest_ms\": {:.3}, \"ingest_events_per_s\": {:.0}, \"identical_output\": {}, \"fingerprint\": \"{:016x}\"}}{}\n",
            r.window,
            r.ingest_ms,
            r.events_per_s,
            r.identical,
            r.fingerprint,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    j.push_str("    ],\n");
    j.push_str(&format!(
        "    \"speedup_vs_baseline\": {:.2}\n",
        speedup
    ));
    j.push_str("  },\n");
    j.push_str("  \"wire\": {\n");
    j.push_str(&format!(
        "    \"frame_bytes\": {wire_frame_bytes},\n    \"bytes_per_event\": {bytes_per_event:.3},\n"
    ));
    j.push_str(&format!(
        "    \"encode_events_per_s\": {encode_events_per_s:.0}, \"decode_events_per_s\": {decode_events_per_s:.0},\n",
    ));
    j.push_str(&format!(
        "    \"decode_exact\": {decode_exact}, \"collector_identical\": {wire_collector_identical}, \"size_ok\": {size_ok}, \"ok\": {wire_ok}\n",
    ));
    j.push_str("  },\n");
    j.push_str(&format!("  \"ok\": {}\n", ok));
    j.push_str("}\n");
    write_json_file(&args.out, &j);
    println!("wrote {}", args.out);

    if !ok {
        eprintln!(
            "FAIL: micro self-check ({micros_ok}), ingest identity ({ingest_ok}), throughput gate ({throughput_ok}), or wire gate ({wire_ok})"
        );
        return ExitCode::FAILURE;
    }
    println!("all paths self-checked; ingest byte-identical and over the throughput gate");
    ExitCode::SUCCESS
}
