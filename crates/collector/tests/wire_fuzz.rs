//! Randomized damage fuzzing of the binary wire ingest path — the
//! adversarial extension of the PR 6 damage matrix in
//! `streaming_diff.rs`, now at the *byte* level (DESIGN.md §16):
//!
//! - **Never panic**: arbitrary truncation, bit flips, duplicated and
//!   reordered frames, and outright garbage buffers must come back as
//!   `Err(WireError)` or heal — never unwind, never abort.
//! - **Never silently corrupt**: whenever the finalized report differs
//!   from the clean reference, the damage must be visible in the stats
//!   (`wire_errors`, quarantine counters, resyncs, degraded markers).
//!   A frame the codec rejects is a dropped batch; the §12 seq-gap
//!   machinery takes it from there.
//! - **Detection**: every byte-corrupted frame fed to
//!   [`Collector::enqueue_wire`] is individually rejected by the
//!   envelope (magic/version/length/CRC-64 digest) or body validation —
//!   corruption cannot ride a valid-looking frame into the
//!   accumulators.
//! - **Reorder/duplicate transparency**: damage that only permutes or
//!   repeats intact frames heals to byte-identity through the park,
//!   dedup, and resync paths.
//! - **Structure-aware damage**: bit flips almost never get past the
//!   CRC-64 envelope, so one suite edits a *decoded* field, re-seals the
//!   delta checksum and re-encodes under a fresh valid envelope — the
//!   only way to reach `StageAccumulator::apply`'s validation with
//!   bytes every checksum vouches for. Whatever `apply` lets through
//!   must leave a dump that validates.
//! - **Header damage**: the header frame lost, bit-flipped, or
//!   delivered after batch frames. Batch frames offered before a header
//!   is installed are refused like lost batches; a run that never
//!   installs one finalizes to the analysis of no dumps, and one that
//!   installs it late heals by resync.
//! - **Valid dumps**: every finalized report, healed or degraded, is
//!   batch `analyze` over the dumps the collector accumulated, and none
//!   of them is skipped as invalid.
//!
//! One recorded TPC-W scenario is encoded once and shared across all
//! cases; each case derives a fresh damage plan from its proptest seed.

use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;
use whodunit_apps::tpcw::run_tpcw_streaming;
use whodunit_bench::matrix::scenario_cfg;
use whodunit_collector::{Collector, CollectorConfig, CollectorOutput, QuarantinePolicy};
use whodunit_core::cost::CPU_HZ;
use whodunit_core::delta::{
    CctDelta, EpochBatch, RecordedResync, RecordingSink, ResyncSource, StageAccumulator,
    StageDelta, StreamHeader,
};
use whodunit_core::pipeline::{analyze, PipelineConfig};
use whodunit_core::stitch::{DumpAtom, DumpContext, DumpNode, StageDump};
use whodunit_core::synopsis::Synopsis;
use whodunit_core::wire::{decode_batch, encode_batch, encode_header};
use whodunit_sim::sched::SchedulePolicy;

/// One recorded clean scenario, encoded, with its reference surfaces.
struct Scenario {
    header: StreamHeader,
    batches: Vec<EpochBatch>,
    frames: Vec<Vec<u8>>,
    stitched: String,
    dumps_json: String,
    fingerprint: u64,
}

static SCENARIO: OnceLock<Scenario> = OnceLock::new();

fn scenario() -> &'static Scenario {
    SCENARIO.get_or_init(|| {
        let cfg = scenario_cfg(2, SchedulePolicy::Fifo, false);
        let mut sink = RecordingSink::default();
        let report = run_tpcw_streaming(cfg, CPU_HZ, &mut sink);
        let reference = analyze(report.dumps, PipelineConfig::default());
        let frames = sink.batches.iter().map(encode_batch).collect();
        Scenario {
            header: sink.header,
            batches: sink.batches,
            frames,
            stitched: reference.stitched_text(),
            dumps_json: reference.dumps_json.clone(),
            fingerprint: reference.fingerprint(),
        }
    })
}

#[derive(Clone)]
struct SharedResync(Rc<RefCell<RecordedResync>>);

impl ResyncSource for SharedResync {
    fn snapshot(&self, stage: usize) -> Option<(StageDump, u64)> {
        self.0.borrow().snapshot(stage)
    }
}

/// Deterministic xorshift64* stream for damage plans.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Feeds `frames` through the wire ingest with the resync reference
/// advanced in lockstep against the *clean* stream, and returns the
/// output plus the number of frames the codec rejected.
fn ingest(frames: &[Vec<u8>]) -> (CollectorOutput, u64) {
    ingest_with_headers(&[(0, encode_header(&scenario().header))], frames)
}

/// [`ingest`] with the header frame delivered as `headers` says: each
/// `(k, bytes)` is offered to [`Collector::start_wire`] once `k` batch
/// frames have been offered. Header refusals count as rejected frames.
fn ingest_with_headers(headers: &[(usize, Vec<u8>)], frames: &[Vec<u8>]) -> (CollectorOutput, u64) {
    let s = scenario();
    let mut c = Collector::new(CollectorConfig {
        quarantine: QuarantinePolicy {
            reorder_buffer: 2,
            ..QuarantinePolicy::default()
        },
        ..CollectorConfig::default()
    });
    let shared = Rc::new(RefCell::new(RecordedResync::new(&s.header)));
    c.set_resync_source(Box::new(SharedResync(shared.clone())));
    // The emitter mirror is always at least as current as anything the
    // damaged stream could carry: advance it fully first.
    for b in &s.batches {
        shared.borrow_mut().advance(b);
    }
    let mut rejected = 0u64;
    for i in 0..=frames.len() {
        for (_, h) in headers.iter().filter(|&&(k, _)| k == i) {
            rejected += u64::from(c.start_wire(h).is_err());
        }
        let Some(f) = frames.get(i) else { break };
        match c.enqueue_wire(f) {
            Ok(accepted) => assert!(accepted, "unbounded queue refused a frame"),
            Err(_) => rejected += 1,
        }
        c.drain();
    }
    (c.finalize(), rejected)
}

/// Whether the finalized report matches the clean reference on every
/// locked surface.
fn identical(out: &CollectorOutput) -> bool {
    let s = scenario();
    out.report.fingerprint() == s.fingerprint
        && out.report.stitched_text() == s.stitched
        && out.report.dumps_json == s.dumps_json
}

/// Whether the stats make the damage visible — the "never silently
/// corrupt" half of the contract.
fn visible(out: &CollectorOutput) -> bool {
    let st = &out.stats;
    st.wire_errors > 0
        || st.quarantined > 0
        || st.resyncs > 0
        || st.healed_frames > 0
        || st.dup_frames > 0
        || st.dropped_frames > 0
        || st.seq_gaps > 0
        || st.delta_errors > 0
        || st.stalls > 0
        || !st.degraded.is_empty()
}

/// The report is batch `analyze` over the dumps the collector
/// accumulated; what is left to check is that every one of them
/// validates, so no stage was skipped.
fn dumps_validate(out: &CollectorOutput) -> bool {
    out.report.warnings.is_empty()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary mixed damage plans: corrupting ops (truncate, bit
    /// flip, garbage injection) must each be rejected at the envelope,
    /// and any divergence from the reference must be visible in the
    /// stats. Never a panic.
    #[test]
    fn damaged_wire_streams_never_panic_or_silently_corrupt(seed in any::<u64>()) {
        let s = scenario();
        let mut r = Rng::new(seed);
        let mut frames = s.frames.clone();
        let mut corrupted = 0u64;
        for _ in 0..1 + r.below(3) {
            match r.below(5) {
                0 => {
                    // Truncate: cut at least one byte, keep at least one.
                    let i = r.below(frames.len() as u64) as usize;
                    let len = frames[i].len();
                    frames[i].truncate(1 + r.below(len as u64 - 1) as usize);
                    corrupted += 1;
                }
                1 => {
                    // Flip one bit anywhere in the frame.
                    let i = r.below(frames.len() as u64) as usize;
                    let at = r.below(frames[i].len() as u64) as usize;
                    frames[i][at] ^= 1 << r.below(8);
                    corrupted += 1;
                }
                2 => {
                    // Swap two adjacent frames.
                    let i = r.below(frames.len() as u64 - 1) as usize;
                    frames.swap(i, i + 1);
                }
                3 => {
                    // Duplicate a frame in place.
                    let i = r.below(frames.len() as u64) as usize;
                    let f = frames[i].clone();
                    frames.insert(i + 1, f);
                }
                _ => {
                    // Inject garbage, sometimes wearing the real magic.
                    let mut g: Vec<u8> =
                        (0..1 + r.below(64)).map(|_| r.next() as u8).collect();
                    if r.below(2) == 0 && g.len() >= 4 {
                        g[0] = b'W';
                        g[1] = b'D';
                        g[2] = b'W';
                        g[3] = 1;
                    }
                    let i = r.below(frames.len() as u64) as usize;
                    frames.insert(i, g);
                    corrupted += 1;
                }
            }
        }

        let (out, rejected) = ingest(&frames);
        prop_assert_eq!(out.stats.wire_errors, rejected, "error count drifted");
        prop_assert!(
            rejected >= corrupted.min(1),
            "corrupting damage went undetected: {} ops, {} rejections",
            corrupted,
            rejected
        );
        if !identical(&out) {
            prop_assert!(
                visible(&out),
                "report diverged with clean stats: {:?}",
                out.stats
            );
        }
        prop_assert!(dumps_validate(&out), "accumulated an invalid dump: {:?}", out.report.warnings);
    }

    /// Damage that only permutes or repeats intact frames is fully
    /// transparent: the report heals to byte-identity through park,
    /// dedup, and resync — no wire errors at all.
    #[test]
    fn reordered_and_duplicated_wire_frames_heal_to_identity(seed in any::<u64>()) {
        let s = scenario();
        let mut r = Rng::new(seed);
        let mut frames = s.frames.clone();
        for _ in 0..1 + r.below(3) {
            if r.below(2) == 0 {
                let i = r.below(frames.len() as u64 - 1) as usize;
                frames.swap(i, i + 1);
            } else {
                let i = r.below(frames.len() as u64) as usize;
                let f = frames[i].clone();
                frames.insert(i + 1, f);
            }
        }

        let (out, rejected) = ingest(&frames);
        prop_assert_eq!(rejected, 0u64, "intact frames must decode");
        prop_assert_eq!(out.stats.wire_errors, 0u64);
        prop_assert!(identical(&out), "reorder/dup damage leaked into the report");
    }

    /// Header damage: the header frame is lost, arrives bit-flipped (the
    /// link may or may not deliver a clean copy later), or arrives late
    /// behind some batch frames. Never a panic; batch frames offered
    /// while no header is installed are refused and counted; every
    /// dump validates. A run that never installs the header finalizes
    /// to the analysis of no dumps, one that installs it late heals to
    /// byte-identity by resync.
    #[test]
    fn damaged_or_late_header_frames_never_panic_and_always_show(seed in any::<u64>()) {
        let s = scenario();
        let mut r = Rng::new(seed);
        let clean = encode_header(&s.header);
        let mut flipped = clean.clone();
        let at = r.below(flipped.len() as u64) as usize;
        flipped[at] ^= 1 << r.below(8);
        // Batch frames offered before the (first) header delivery.
        let late = 1 + r.below(s.frames.len() as u64 / 2) as usize;
        let plan = match r.below(4) {
            0 => vec![],
            1 => vec![(r.below(2) as usize * late, flipped)],
            2 => vec![(0, flipped), (late, clean.clone())],
            _ => vec![(late, clean.clone())],
        };
        let installed = plan.iter().any(|(_, h)| h == &clean);

        let (out, rejected) = ingest_with_headers(&plan, &s.frames);
        let st = &out.stats;
        prop_assert_eq!(st.wire_errors, rejected, "error count drifted");
        prop_assert!(dumps_validate(&out), "accumulated an invalid dump: {:?}", out.report.warnings);
        prop_assert!(visible(&out), "header damage left clean stats: {:?}", st);
        let flips = plan.len() as u64 - u64::from(installed);
        if installed {
            // The frames before the header, and the damaged copy.
            prop_assert_eq!(rejected, late as u64 + flips);
            prop_assert!(identical(&out), "a late header did not heal: {:?}", st);
        } else {
            prop_assert_eq!(rejected, s.frames.len() as u64 + flips);
            prop_assert_eq!((st.batches, st.wire_frames), (0, 0));
            prop_assert!(out.report.stages.is_empty() && out.report.profiles.is_empty());
        }
    }

    /// Checksum-valid structural damage: one decoded field of one delta
    /// is edited, the delta checksum recomputed, the batch re-encoded
    /// under a fresh envelope. Nothing upstream of the accumulator's own
    /// validation can object, so it must — whether or not the run then
    /// heals to byte-identity, the damage always shows in the stats.
    /// The classes that break what `StageDump::validate` checks (and
    /// the mint rules) must be refused by `apply` itself: quarantined,
    /// resynced, byte-identical.
    #[test]
    fn resealed_structural_damage_is_caught_by_the_accumulator(seed in any::<u64>()) {
        let s = scenario();
        let mut r = Rng::new(seed);
        let mut frames = s.frames.clone();
        let busy: Vec<usize> = (0..frames.len())
            .filter(|&i| !s.batches[i].deltas.is_empty())
            .collect();
        let fi = busy[r.below(busy.len() as u64) as usize];
        let (mut batch, _) = decode_batch(&frames[fi]).expect("clean frame decodes");
        let di = r.below(batch.deltas.len() as u64) as usize;
        let d = &mut batch.deltas[di];
        // The stage's state when this delta arrives on the clean stream.
        let mut acc = StageAccumulator::new(&s.header.stages[d.stage]);
        for e in s.batches[..fi].iter().flat_map(|b| &b.deltas).filter(|e| e.stage == d.stage) {
            acc.apply(e).expect("clean prefix applies");
        }
        let (n_frames, n_ctx) = (
            (acc.frames.len() + d.new_frames.len()) as u32,
            (acc.context_count() + d.new_contexts.len()) as u32,
        );
        // A context this stage minted a synopsis for in an earlier frame,
        // and a raw value no process of the scenario can mint.
        let minted = acc.to_dump().synopses.first().copied();
        let fresh_raw = Synopsis::new(0x7fff, r.below(1 << 20) as u32).0;
        let ci = r.below(d.ccts.len() as u64) as usize;
        let before = d.clone();
        // Whether the class is one `apply` must itself refuse.
        let mut must_heal = false;
        match (r.below(11), d.ccts.get_mut(ci), minted) {
            (0, ..) => d.stage = s.header.stages.len() + r.below(4) as usize,
            (1, Some(c), _) if c.nodes_before > 0 && r.below(2) == 0 => c.nodes_before -= 1,
            (1, Some(c), _) => c.nodes_before += 1,
            (2, Some(c), _) => c.grown.push((c.nodes_before + r.below(3) as u32, 1, 100, 1)),
            (3, _, Some((raw, ctx))) => d.new_synopses.push((raw ^ 1, ctx)),
            (4, Some(_), _) if ci > 0 && r.below(2) == 0 => d.ccts.swap(ci - 1, ci),
            (4, Some(c), _) => {
                let repeat = c.clone();
                d.ccts.insert(ci, repeat);
            }
            // A new node whose parent does not precede it, or is absent.
            (5, Some(c), _) => {
                let at = c.nodes_before + c.new_nodes.len() as u32;
                let parent = [None, Some(at), Some(at + 1 + r.below(9) as u32)];
                c.new_nodes.push(DumpNode {
                    frame: Some(0),
                    parent: parent[r.below(3) as usize],
                    samples: 1,
                    cycles: 100,
                    calls: 1,
                });
                must_heal = true;
            }
            // A CCT labeled with a context the stage never interned.
            (6, Some(_), _) => {
                // The last one, so the ctx column stays increasing.
                let c = d.ccts.last_mut().expect("the delta has a CCT");
                c.ctx = n_ctx + r.below(3) as u32;
                must_heal = true;
            }
            // A context atom naming a frame the stage never interned.
            (7, ..) => {
                let bad = n_frames + r.below(3) as u32;
                let atom = [DumpAtom::Frame(bad), DumpAtom::Path(vec![0, bad])];
                d.new_contexts.push(DumpContext {
                    atoms: vec![atom[r.below(2) as usize].clone()].into(),
                });
                must_heal = true;
            }
            // A synopsis minted for a context the stage never interned —
            // the far ones would size a dense table off the frame.
            (8, ..) => {
                let ctx = [n_ctx, n_ctx + 7, u32::MAX][r.below(3) as usize];
                d.new_synopses.push((fresh_raw, ctx));
                must_heal = true;
            }
            // One delta minting a raw value, or for a context, twice.
            (9, ..) => {
                d.new_contexts.extend([DumpContext::default(), DumpContext::default()]);
                let second = [(fresh_raw, n_ctx + 1), (fresh_raw ^ 1, n_ctx)];
                d.new_synopses.extend([(fresh_raw, n_ctx), second[r.below(2) as usize]]);
                must_heal = true;
            }
            // A per-stage sequence skip fits every delta.
            _ => d.seq += 1 + r.below(3),
        }
        d.checksum = d.compute_checksum();
        // `apply` returning `Ok` means the dump still validates.
        if d.stage < s.header.stages.len() && acc.apply(d).is_ok() {
            prop_assert!(!must_heal, "apply let through: {:?} -> {:?}", before, d);
            prop_assert_eq!(acc.to_dump().validate(), Ok(()), "{:?} -> {:?}", before, d);
        }
        frames[fi] = encode_batch(&batch);

        let (out, rejected) = ingest(&frames);
        prop_assert_eq!(out.stats.wire_errors, rejected, "error count drifted");
        let st = &out.stats;
        prop_assert!(
            st.wire_errors + st.quarantined + st.resyncs > 0 || !st.degraded.is_empty(),
            "re-sealed damage went unnoticed: frame {} of {}: {:?} -> {:?}",
            fi, frames.len(), before, batch.deltas[di]
        );
        prop_assert!(dumps_validate(&out), "accumulated an invalid dump: {:?}", out.report.warnings);
        if must_heal {
            prop_assert!(
                st.quarantined > 0 && st.resyncs > 0 && identical(&out),
                "not refused and healed: {:?} -> {:?}: {:?}",
                before, batch.deltas[di], st
            );
        }
    }

    /// A checksum-valid frame whose CCT section repeats a ctx id —
    /// with a *smaller* new-node count the second time, so a naive
    /// decoder would shrink a Vec below ranges it already planned to
    /// fill — is rejected as malformed body damage: counted, dropped,
    /// never a panic, never a silent corruption.
    #[test]
    fn duplicate_cct_ctx_frames_quarantine_without_panicking(extra in 0u32..4) {
        let node = |cycles: u64| DumpNode {
            frame: None,
            parent: None,
            samples: 1,
            cycles,
            calls: 1,
        };
        let mut d = StageDelta {
            stage: 0,
            seq: 0,
            new_frames: vec![],
            new_contexts: vec![],
            new_synopses: vec![],
            ccts: vec![
                CctDelta {
                    ctx: 1,
                    nodes_before: 0,
                    new_nodes: vec![node(100), node(200)],
                    grown: vec![],
                },
                CctDelta {
                    ctx: 1,
                    nodes_before: 0,
                    new_nodes: (0..1 + extra as u64).map(node).collect(),
                    grown: vec![],
                },
            ],
            pairs: vec![],
            waiters: vec![],
            piggyback_bytes: 0,
            messages: 0,
            checksum: 0,
        };
        d.checksum = d.compute_checksum();
        let frame = encode_batch(&EpochBatch {
            epoch: 0,
            seq: 0,
            end: 100,
            deltas: vec![d],
        });
        let mut c = Collector::new(CollectorConfig::default());
        c.start_wire(&encode_header(&scenario().header)).expect("header decodes");
        prop_assert!(c.enqueue_wire(&frame).is_err(), "duplicate-ctx frame decoded");
        c.drain();
        prop_assert_eq!(c.stats().wire_errors, 1u64);
        prop_assert_eq!(c.stats().wire_frames, 0u64);
    }

    /// Raw garbage buffers — any length, any contents, with or without
    /// a valid-looking envelope prefix — never panic the ingest and
    /// never count as accepted frames.
    #[test]
    fn garbage_buffers_are_rejected_without_panicking(seed in any::<u64>()) {
        let mut r = Rng::new(seed);
        let mut c = Collector::new(CollectorConfig::default());
        c.start_wire(&encode_header(&scenario().header)).expect("header decodes");
        for _ in 0..16 {
            let mut g: Vec<u8> = (0..r.below(128)).map(|_| r.next() as u8).collect();
            if r.below(3) == 0 && g.len() >= 9 {
                g[0] = b'W';
                g[1] = b'D';
                g[2] = b'W';
                g[3] = 1;
                g[4] = 2;
            }
            prop_assert!(c.enqueue_wire(&g).is_err(), "garbage decoded as a frame");
        }
        prop_assert_eq!(c.stats().wire_frames, 0u64);
        prop_assert_eq!(c.stats().wire_errors, 16u64);
    }
}
