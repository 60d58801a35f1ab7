//! Property tests for the columnar binary wire codec (DESIGN.md §16):
//!
//! - **Exact round-trips**: `decode(encode(x)) == x` as a value, for
//!   arbitrary canonical [`StageDelta`]s (including hostile extremes —
//!   `u64::MAX` swings that stress the zigzag delta-of-delta columns,
//!   empty and maximal sections, multi-byte UTF-8 in the intern tables,
//!   and wrong stored checksums, which must survive the wire verbatim
//!   so the struct ingest path can quarantine them).
//! - **Canonical form**: a delta whose keyed lists do not strictly
//!   ascend is malformed, in a batch frame and in a summary frame.
//! - **Stream framing**: concatenated frames decode one by one off a
//!   single buffer via the `consumed` count, with no drift.
//! - **Recycled decode ≡ fresh decode**: one [`BatchDecoder`] fed a
//!   random sequence of frames — batch sizes going up and down, some
//!   frames truncated, bit-flipped or re-sealed around a repeated CCT
//!   ctx — answers every frame exactly as [`decode_batch`] does, so
//!   nothing of an earlier delta ever shows in a later one and a
//!   refused frame leaves the pool usable.
//! - **Golden frame**: one small, fully-populated frame is locked as a
//!   hex dump under `tests/golden/wire_frame.hex`. Any byte change to
//!   the format is a visible diff; regenerate deliberately with
//!   `UPDATE_GOLDEN=1 cargo test -p whodunit-core --test wire_props`.
//!
//! The generators build structures directly from a seeded xorshift
//! stream rather than composing strategy combinators: the wire codec
//! must round-trip *any* field values of a canonical delta, not only
//! streams an emitter would produce, so the domain is deliberately
//! wider than `diff_dump`'s output.

use proptest::prelude::*;
use whodunit_core::delta::CctDelta;
use whodunit_core::delta::{EpochBatch, Incoming, StageDelta, StreamHeader, StreamStage};
use whodunit_core::stitch::{
    DumpAtom, DumpContext, DumpCrosstalkPair, DumpCrosstalkWaiter, DumpNode,
};
use whodunit_core::summary::{LeafGauges, SummaryFrame};
use whodunit_core::wire::{
    decode_batch, decode_header, decode_summary, encode_batch, encode_header, encode_summary,
    BatchDecoder, WireError,
};

/// Deterministic xorshift64* stream for structure building.
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

    /// A u64 biased toward the values that break naive column codecs:
    /// zero, small, `u64::MAX`, off-by-one boundaries, and full-range
    /// noise — adjacent draws produce difference-of-difference values
    /// near the i128 extremes.
    fn extreme(&mut self) -> u64 {
        match self.below(6) {
            0 => 0,
            1 => self.below(16),
            2 => u64::MAX,
            3 => u64::MAX - self.below(16),
            4 => 1u64 << self.below(64),
            _ => self.next(),
        }
    }

    fn name(&mut self, tag: &str) -> String {
        // Multi-byte UTF-8 on some draws: length-prefixed strings must
        // count bytes, not chars.
        match self.below(4) {
            0 => format!("{tag}-{}", self.below(1000)),
            1 => String::new(),
            2 => format!("{tag}-λ·{}", self.below(1000)),
            _ => format!("{tag}#{}", self.next()),
        }
    }
}

fn arb_node(r: &mut Rng) -> DumpNode {
    let opt = |r: &mut Rng| match r.below(3) {
        0 => None,
        _ => Some((r.extreme() as u32).min(u32::MAX - 1)),
    };
    DumpNode {
        frame: opt(r),
        parent: opt(r),
        samples: r.extreme(),
        cycles: r.extreme(),
        calls: r.extreme(),
    }
}

fn arb_atom(r: &mut Rng) -> DumpAtom {
    match r.below(3) {
        0 => DumpAtom::Frame(r.extreme() as u32),
        1 => DumpAtom::Path((0..r.below(4)).map(|_| r.extreme() as u32).collect()),
        _ => DumpAtom::Remote((0..r.below(4)).map(|_| r.extreme()).collect()),
    }
}

/// `rows` sorted by `key`, one row per key.
fn canonical<T, K: Ord>(mut rows: Vec<T>, key: impl Fn(&T) -> K) -> Vec<T> {
    rows.sort_by_key(&key);
    rows.dedup_by(|x, y| key(x) == key(y));
    rows
}

fn arb_delta(r: &mut Rng) -> StageDelta {
    StageDelta {
        stage: r.below(64) as usize,
        seq: r.extreme(),
        new_frames: (0..r.below(5)).map(|_| r.name("frame").into()).collect(),
        new_contexts: (0..r.below(4))
            .map(|_| DumpContext {
                atoms: (0..r.below(4)).map(|_| arb_atom(r)).collect(),
            })
            .collect(),
        new_synopses: (0..r.below(5))
            .map(|_| (r.extreme(), r.extreme() as u32))
            .collect(),
        // Every keyed list strictly ascending — the canonical form
        // (`StageDelta::check_order`) both decode paths enforce.
        ccts: {
            let mut ctx: Vec<u32> = (0..r.below(4)).map(|_| r.extreme() as u32).collect();
            ctx.sort_unstable();
            ctx.dedup();
            ctx.into_iter()
                .map(|ctx| CctDelta {
                    ctx,
                    nodes_before: r.below(1000) as u32,
                    new_nodes: (0..r.below(5)).map(|_| arb_node(r)).collect(),
                    grown: canonical(
                        (0..r.below(5))
                            .map(|_| (r.below(1000) as u32, r.extreme(), r.extreme(), r.extreme()))
                            .collect(),
                        |g| g.0,
                    ),
                })
                .collect()
        },
        pairs: canonical(
            (0..r.below(4))
                .map(|_| DumpCrosstalkPair {
                    waiter: r.extreme() as u32,
                    holder: r.extreme() as u32,
                    count: r.extreme(),
                    total_wait: r.extreme(),
                })
                .collect(),
            |p| (p.waiter, p.holder),
        ),
        waiters: canonical(
            (0..r.below(4))
                .map(|_| DumpCrosstalkWaiter {
                    waiter: r.extreme() as u32,
                    count: r.extreme(),
                    total_wait: r.extreme(),
                })
                .collect(),
            |w| w.waiter,
        ),
        piggyback_bytes: r.extreme(),
        messages: r.extreme(),
        // Arbitrary — often *wrong* for the content. The wire must
        // carry it verbatim so the struct path's own verification
        // stays the arbiter of corruption.
        checksum: r.extreme(),
    }
}

fn arb_batch(r: &mut Rng) -> EpochBatch {
    EpochBatch {
        epoch: r.extreme(),
        seq: r.extreme(),
        end: r.extreme(),
        deltas: (0..r.below(4)).map(|_| arb_delta(r)).collect(),
    }
}

fn arb_summary(r: &mut Rng) -> SummaryFrame {
    SummaryFrame {
        src: r.extreme() as u32,
        seq: r.extreme(),
        last_epoch: r.extreme(),
        deltas: (0..r.below(3)).map(|_| arb_delta(r)).collect(),
        leaf_mass: (0..r.below(4))
            .map(|_| (r.extreme() as u32, r.extreme()))
            .collect(),
        gauges: (0..r.below(4))
            .map(|_| {
                (
                    r.extreme() as u32,
                    LeafGauges {
                        last_epoch: r.extreme(),
                        lag_frames: r.extreme(),
                        recoveries: r.extreme(),
                    },
                )
            })
            .collect(),
        checksum: r.extreme(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `decode(encode(batch)) == batch` for arbitrary epoch batches —
    /// every column, every section, every extreme.
    #[test]
    fn batches_round_trip_exactly(seed in any::<u64>()) {
        let mut r = Rng::new(seed);
        let batch = arb_batch(&mut r);
        let bytes = encode_batch(&batch);
        let (back, consumed) = decode_batch(&bytes).expect("own encoding decodes");
        prop_assert_eq!(consumed, bytes.len(), "consumed drifted");
        prop_assert_eq!(back, batch, "round trip changed the value");
    }

    /// Single arbitrary stage deltas round-trip through a batch frame —
    /// the `decode(encode(delta)) == delta` law stated by itself.
    #[test]
    fn deltas_round_trip_exactly(seed in any::<u64>()) {
        let mut r = Rng::new(seed);
        let delta = arb_delta(&mut r);
        let batch = EpochBatch { epoch: 0, seq: 0, end: 0, deltas: vec![delta.clone()] };
        let (back, _) = decode_batch(&encode_batch(&batch)).expect("decodes");
        prop_assert_eq!(back.deltas.len(), 1);
        prop_assert_eq!(back.deltas.into_iter().next().unwrap(), delta);
    }

    /// Summary frames (federation links) round-trip exactly, including
    /// ledgers, gauges, and stored checksums.
    #[test]
    fn summaries_round_trip_exactly(seed in any::<u64>()) {
        let mut r = Rng::new(seed);
        let frame = arb_summary(&mut r);
        let bytes = encode_summary(&frame);
        let (back, consumed) = decode_summary(&bytes).expect("own encoding decodes");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(back, frame);
    }

    /// A concatenated stream of frames decodes frame by frame with no
    /// drift — the collector's ingest loop contract.
    #[test]
    fn concatenated_streams_decode_without_drift(
        input in (any::<u64>(), 1usize..6)
    ) {
        let (seed, n) = input;
        let mut r = Rng::new(seed);
        let batches: Vec<EpochBatch> = (0..n).map(|_| arb_batch(&mut r)).collect();
        let mut stream = Vec::new();
        for b in &batches {
            stream.extend_from_slice(&encode_batch(b));
        }
        let mut at = 0;
        for b in &batches {
            let (back, consumed) = decode_batch(&stream[at..]).expect("frame decodes");
            prop_assert_eq!(&back, b);
            at += consumed;
        }
        prop_assert_eq!(at, stream.len(), "stream left trailing bytes");
    }

    /// One [`BatchDecoder`] over a sequence of frames, some of them
    /// damaged, against [`decode_batch`] (fresh storage) on the same
    /// bytes: the same `Ok`, field for field, or the same `Err`.
    #[test]
    fn recycled_decode_equals_fresh_decode(seed in any::<u64>()) {
        let mut r = Rng::new(seed);
        let mut dec = BatchDecoder::default();
        // Batches not yet handed back: the pool is sometimes empty,
        // sometimes fuller than the next frame needs.
        let mut held = Vec::new();
        for step in 0..2 + r.below(10) {
            let mut batch = arb_batch(&mut r);
            batch.deltas = (0..r.below(7)).map(|_| arb_delta(&mut r)).collect();
            // Clean emitters (every checksum canonical, so none is
            // stored and the batch comes out unsealed), corrupt ones,
            // and frames that mix the two.
            let canonical = r.below(3);
            for d in &mut batch.deltas {
                if canonical == 0 || (canonical == 1 && r.below(2) == 0) {
                    d.checksum = d.compute_checksum();
                }
            }
            let damage = r.below(6);
            if damage == 0 {
                // A checksum-valid frame the reader must refuse part
                // way through: its last delta repeats a CCT ctx, after
                // the earlier deltas have been read into pooled storage.
                let mut d = arb_delta(&mut r);
                d.ccts.push(CctDelta { ctx: 7, ..CctDelta::default() });
                d.ccts.push(d.ccts.last().expect("just pushed").clone());
                batch.deltas.push(d);
            }
            let mut bytes = encode_batch(&batch);
            match damage {
                1 => bytes.truncate(r.below(bytes.len() as u64) as usize),
                2 => {
                    let at = r.below(bytes.len() as u64) as usize;
                    bytes[at] ^= 1 << r.below(8);
                }
                _ => {}
            }

            let fresh = decode_batch(&bytes);
            match (dec.decode(&bytes), fresh) {
                (Ok((got, consumed)), Ok((want, fresh_consumed))) => {
                    prop_assert!(damage > 2, "step {}: damaged frame decoded", step);
                    prop_assert_eq!(consumed, fresh_consumed);
                    let b = got.batch();
                    prop_assert_eq!((b.epoch, b.seq, b.end), (want.epoch, want.seq, want.end));
                    let sealed: Vec<StageDelta> = got.deltas().map(Incoming::seal).collect();
                    prop_assert_eq!(&sealed, &want.deltas, "step {}: recycled != fresh", step);
                    prop_assert_eq!(&want, &batch, "step {}: fresh != encoder input", step);
                    // The vouch is per frame: unsealed iff none of its
                    // deltas had a checksum worth storing.
                    let clean = batch.deltas.iter().all(|d| d.checksum == d.compute_checksum());
                    for d in got.deltas() {
                        prop_assert_eq!(matches!(d, Incoming::Unsealed(_)), clean);
                    }
                    held.push(got);
                }
                (Err(got), Err(want)) => prop_assert_eq!(got, want, "step {}", step),
                (got, want) => prop_assert!(false, "step {}: {:?} vs {:?}", step, got, want),
            }
            while !held.is_empty() && r.below(3) != 0 {
                dec.recycle(held.swap_remove(r.below(held.len() as u64) as usize));
            }
        }
    }

    /// A delta that repeats a crosstalk pair or waiter, or lists growth
    /// rows out of node order, is malformed: a batch frame and a
    /// summary frame carrying it are refused whole, naming the rule.
    #[test]
    fn non_canonical_deltas_are_malformed(input in (any::<u64>(), 0u8..3)) {
        let (seed, which) = input;
        let mut r = Rng::new(seed);
        let mut d = arb_delta(&mut r);
        let what = match which {
            0 => {
                let p = DumpCrosstalkPair { waiter: r.next() as u32, holder: 1, count: 1, total_wait: 2 };
                d.pairs.extend([p, p]);
                "crosstalk pairs not strictly increasing"
            }
            1 => {
                let w = DumpCrosstalkWaiter { waiter: r.next() as u32, count: 1, total_wait: 2 };
                d.waiters.extend([w, w]);
                "crosstalk waiters not strictly increasing"
            }
            _ => {
                if d.ccts.is_empty() {
                    d.ccts.push(CctDelta::default());
                }
                let at = r.below(d.ccts.len() as u64) as usize;
                let node = r.below(1000) as u32;
                d.ccts[at].grown.extend([(node + 1, 1, 2, 3), (node, 1, 2, 3)]);
                "CCT growth rows not strictly increasing by node"
            }
        };
        prop_assert_eq!(d.check_order(), Err(what));
        let malformed = Err(WireError::Malformed(what));
        let batch = EpochBatch { epoch: 0, seq: 0, end: 0, deltas: vec![d.clone()] };
        let bytes = encode_batch(&batch);
        prop_assert_eq!(decode_batch(&bytes).map(|_| ()), malformed.clone());
        prop_assert_eq!(BatchDecoder::default().decode(&bytes).map(|_| ()), malformed.clone());
        let frame = SummaryFrame { deltas: vec![d], ..SummaryFrame::default() }.seal();
        prop_assert_eq!(decode_summary(&encode_summary(&frame)).map(|_| ()), malformed);
    }

    /// Stream headers round-trip through their wire frames for
    /// arbitrary contents.
    #[test]
    fn headers_round_trip(seed in any::<u64>()) {
        let mut r = Rng::new(seed);
        let header = StreamHeader {
            stages: (0..r.below(6))
                .map(|_| StreamStage { proc: r.extreme() as u32, stage_name: r.name("stage") })
                .collect(),
        };
        let bytes = encode_header(&header);
        let (back, consumed) = decode_header(&bytes).expect("header decodes");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(back, header);
    }
}

/// The golden frame: small enough to eyeball in a hex dump, populated
/// enough that every section of the §16 layout contributes bytes.
fn golden_batch() -> EpochBatch {
    EpochBatch {
        epoch: 3,
        seq: 7,
        end: 250_000,
        deltas: vec![StageDelta {
            stage: 1,
            seq: 7,
            new_frames: vec!["main".into(), "handle_req".into()],
            new_contexts: vec![
                DumpContext {
                    atoms: vec![DumpAtom::Frame(0)].into(),
                },
                DumpContext {
                    atoms: vec![DumpAtom::Path(vec![0, 1]), DumpAtom::Remote(vec![0xABCD])].into(),
                },
            ],
            new_synopses: vec![(0x00C0FFEE, 0), (0x00C0FFFA, 1)],
            ccts: vec![CctDelta {
                ctx: 0,
                nodes_before: 1,
                new_nodes: vec![DumpNode {
                    frame: Some(1),
                    parent: Some(0),
                    samples: 4,
                    cycles: 4096,
                    calls: 2,
                }],
                grown: vec![(0, 1, 512, 1)],
            }],
            pairs: vec![DumpCrosstalkPair {
                waiter: 1,
                holder: 0,
                count: 2,
                total_wait: 300,
            }],
            waiters: vec![DumpCrosstalkWaiter {
                waiter: 1,
                count: 2,
                total_wait: 300,
            }],
            piggyback_bytes: 24,
            messages: 6,
            checksum: 0x0123_4567_89AB_CDEF,
        }],
    }
}

fn hex_dump(bytes: &[u8]) -> String {
    let mut out = String::new();
    for chunk in bytes.chunks(16) {
        for b in chunk {
            out.push_str(&format!("{b:02x} "));
        }
        out.pop();
        out.push('\n');
    }
    out
}

/// Locks the golden frame's exact bytes. A failure here means the wire
/// format changed: if intentional, bump [`whodunit_core::WIRE_VERSION`]
/// and regenerate with `UPDATE_GOLDEN=1`.
#[test]
fn golden_frame_bytes_are_locked() {
    let bytes = encode_batch(&golden_batch());
    let dump = hex_dump(&bytes);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/wire_frame.hex");
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
        std::fs::write(path, &dump).unwrap();
        eprintln!("golden frame regenerated at {path}");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        dump, want,
        "wire bytes changed; if intentional, bump WIRE_VERSION and re-run with UPDATE_GOLDEN=1"
    );
    // And the locked bytes still decode to the original value.
    let (back, consumed) = decode_batch(&bytes).expect("golden decodes");
    assert_eq!(consumed, bytes.len());
    assert_eq!(back, golden_batch());
}
